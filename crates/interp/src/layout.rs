//! Slot-based data layout.
//!
//! The interpreter models memory as objects made of *slots* (one scalar or
//! pointer per slot), not bytes: `sizeof` yields slot counts, so
//! `malloc(sizeof(*p))` allocates exactly the layout of `*p`. This keeps the
//! model portable while exercising the same code paths (offset pointers,
//! partial initialization, interior pointers) the paper's checks target.

use lclint_sema::{QualType, StructTable, Type};

/// Number of slots a value of `ty` occupies.
pub fn size_of(ty: &Type, structs: &StructTable) -> usize {
    match ty {
        Type::Void => 1,
        Type::Char
        | Type::Int { .. }
        | Type::Float
        | Type::Double
        | Type::Enum(_)
        | Type::Pointer(_)
        | Type::Function(_)
        | Type::Error => 1,
        Type::Array(elem, n) => size_of(&elem.ty, structs) * n.unwrap_or(1).max(1) as usize,
        Type::Struct(id) => {
            let def = structs.get(*id);
            if def.is_union {
                def.fields.iter().map(|f| size_of(&f.ty.ty, structs)).max().unwrap_or(1)
            } else {
                def.fields.iter().map(|f| size_of(&f.ty.ty, structs)).sum::<usize>().max(1)
            }
        }
    }
}

/// The slot offset and type of field `name` within struct `id`.
pub fn field_offset(
    id: lclint_sema::StructId,
    name: &str,
    structs: &StructTable,
) -> Option<(usize, QualType)> {
    let def = structs.get(id);
    let mut off = 0usize;
    for f in &def.fields {
        if f.name == name {
            return Some((if def.is_union { 0 } else { off }, f.ty.clone()));
        }
        off += size_of(&f.ty.ty, structs);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclint_sema::Program;
    use lclint_syntax::parse_translation_unit;

    fn program(src: &str) -> Program {
        let (tu, _, _) = parse_translation_unit("t.c", src).unwrap();
        Program::from_unit(&tu)
    }

    #[test]
    fn scalar_sizes() {
        let p = program("struct s { int a; };");
        assert_eq!(size_of(&Type::Char, &p.structs), 1);
        assert_eq!(size_of(&Type::int(), &p.structs), 1);
    }

    #[test]
    fn struct_layout() {
        let p = program("struct pair { int a; char *b; int c; };");
        let id = p.structs.by_tag("pair").unwrap();
        assert_eq!(size_of(&Type::Struct(id), &p.structs), 3);
        let (off, _) = field_offset(id, "b", &p.structs).unwrap();
        assert_eq!(off, 1);
        let (off, _) = field_offset(id, "c", &p.structs).unwrap();
        assert_eq!(off, 2);
        assert!(field_offset(id, "nope", &p.structs).is_none());
    }

    #[test]
    fn nested_struct_layout() {
        let p = program("struct inner { int a; int b; }; struct outer { struct inner i; int z; };");
        let outer = p.structs.by_tag("outer").unwrap();
        assert_eq!(size_of(&Type::Struct(outer), &p.structs), 3);
        let (off, _) = field_offset(outer, "z", &p.structs).unwrap();
        assert_eq!(off, 2);
    }

    #[test]
    fn array_layout() {
        let p = program("struct s { int a[4]; char b; };");
        let id = p.structs.by_tag("s").unwrap();
        assert_eq!(size_of(&Type::Struct(id), &p.structs), 5);
    }

    #[test]
    fn union_layout() {
        let p = program("union u { int a; char *b; };");
        let id = p.structs.by_tag("u").unwrap();
        assert_eq!(size_of(&Type::Struct(id), &p.structs), 1);
        let (off, _) = field_offset(id, "b", &p.structs).unwrap();
        assert_eq!(off, 0);
    }
}
