/*@only@*/ /*@null@*/ int *g0;
/*@only@*/ /*@null@*/ int *g1;
/*@only@*/ /*@null@*/ int *g2;
/*@only@*/ /*@null@*/ int *g3;
/*@only@*/ /*@null@*/ int *g4;
/*@only@*/ /*@null@*/ int *g5;
/*@only@*/ /*@null@*/ int *g6;
/*@only@*/ /*@null@*/ int *g7;
/*@only@*/ /*@null@*/ int *g8;
/*@only@*/ /*@null@*/ int *g9;
/*@only@*/ /*@null@*/ int *g10;
/*@only@*/ /*@null@*/ int *g11;

void f(void)
{
  free(g11);
  free(g10);
  free(g9);
  free(g8);
  free(g7);
  free(g6);
  free(g5);
  free(g4);
  free(g3);
  free(g2);
  free(g1);
  free(g0);
}
