//! The serving half of the remote castore protocol (`rlclintd
//! --cas-serve ADDR`): a [`Handler`] that exposes one local
//! content-addressed store directory over line-delimited JSON, so a
//! fleet of hosts shares warm per-function and per-task artifacts.
//!
//! # Protocol
//!
//! One JSON object per line each way; keys are 16-hex-digit strings,
//! payloads are hex with an FNV `sum` field (the client half and the
//! degradation policy live in `lclint_analysis::remote`):
//!
//! ```text
//! --> {"op":"get","key":"00000000000000ff"}
//! <-- {"ok":true,"found":true,"payload":"68690a","sum":"…"}
//! <-- {"ok":true,"found":false}
//! --> {"op":"put","key":"00000000000000ff","payload":"68690a","sum":"…"}
//! <-- {"ok":true,"stored":true}
//! --> {"op":"stat"}
//! <-- {"ok":true,"bytes":N,"hits":N,"misses":N,"puts":N,"races":N,"corrupt":N,"evicted":N}
//! --> {"op":"shutdown"}
//! <-- {"ok":true}
//! ```
//!
//! # Trust
//!
//! The server extends the store's "reads are never trusted" rule to the
//! wire: a `put` whose payload fails its own `sum` is rejected with an
//! error response and never touches the directory, and every served
//! `get` re-checksums what the local store returned. Corruption on
//! either side of the socket is therefore contained at the frame that
//! carried it.

use crate::json::{Json, Writer};
use crate::Handler;
use lclint_analysis::castore::payload_checksum;
use lclint_analysis::remote::{hex_decode, hex_encode};
use lclint_analysis::CasStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A running CAS server: one shared store handle behind a mutex plus
/// the shutdown latch. Lock poisoning is impossible to observe — every
/// lock take recovers the inner value — so a connection thread dying
/// mid-request cannot wedge the store.
pub struct CasService {
    store: Mutex<CasStore>,
    shutdown: AtomicBool,
}

impl CasService {
    /// Wraps a store for serving.
    pub fn new(store: CasStore) -> CasService {
        CasService { store: Mutex::new(store), shutdown: AtomicBool::new(false) }
    }

    fn handle_get(&self, key: u64) -> String {
        let payload = self.store.lock().unwrap_or_else(|e| e.into_inner()).get(key);
        match payload {
            Some(payload) => {
                let mut hex = String::new();
                hex_encode(&mut hex, &payload);
                Writer::obj()
                    .bool("ok", true)
                    .bool("found", true)
                    .str("payload", &hex)
                    .str("sum", &format!("{:016x}", payload_checksum(&payload)))
                    .done()
            }
            None => Writer::obj().bool("ok", true).bool("found", false).done(),
        }
    }

    fn handle_put(&self, key: u64, payload_hex: &str, sum_hex: &str) -> String {
        let Some(payload) = hex_decode(payload_hex) else {
            return err_frame("payload is not valid hex");
        };
        let Ok(sum) = u64::from_str_radix(sum_hex, 16) else {
            return err_frame("sum is not valid hex");
        };
        if payload_checksum(&payload) != sum {
            // The frame was corrupted in flight (or the client is
            // lying); storing it would poison every future reader.
            return err_frame("payload checksum mismatch");
        }
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let before = store.stats().puts;
        store.put(key, &payload);
        let stored = store.stats().puts > before;
        Writer::obj().bool("ok", true).bool("stored", stored).done()
    }

    fn handle_stat(&self) -> String {
        let store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        Writer::obj()
            .bool("ok", true)
            .num("bytes", store.total_bytes() as usize)
            .counters("", store.stats())
            .done()
    }
}

fn err_frame(message: &str) -> String {
    Writer::obj().bool("ok", false).str("error", message).done()
}

fn hex_key(req: &Json) -> Option<u64> {
    let key = req.get("key")?.as_str()?;
    u64::from_str_radix(key, 16).ok()
}

impl Handler for CasService {
    fn handle_line(&self, line: &str) -> String {
        let req = match crate::json::parse(line) {
            Ok(v) => v,
            Err(e) => return err_frame(&format!("bad request: {e}")),
        };
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return err_frame("missing op");
        };
        match op {
            "get" => match hex_key(&req) {
                Some(key) => self.handle_get(key),
                None => err_frame("get needs a hex `key`"),
            },
            "put" => {
                let key = hex_key(&req);
                let payload = req.get("payload").and_then(Json::as_str);
                let sum = req.get("sum").and_then(Json::as_str);
                match (key, payload, sum) {
                    (Some(k), Some(p), Some(s)) => self.handle_put(k, p, s),
                    _ => err_frame("put needs hex `key`, `payload`, and `sum`"),
                }
            }
            "stat" => self.handle_stat(),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Writer::obj().bool("ok", true).done()
            }
            other => err_frame(&format!("unknown op `{other}`")),
        }
    }

    fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(tag: &str) -> CasService {
        let dir = std::env::temp_dir().join(format!("lclint-cassrv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CasService::new(CasStore::open(&dir, None).unwrap())
    }

    fn put_line(key: u64, payload: &[u8]) -> String {
        let mut hex = String::new();
        hex_encode(&mut hex, payload);
        format!(
            "{{\"op\":\"put\",\"key\":\"{key:016x}\",\"payload\":\"{hex}\",\"sum\":\"{:016x}\"}}",
            payload_checksum(payload)
        )
    }

    #[test]
    fn get_put_round_trip_over_frames() {
        let s = service("rt");
        let miss = s.handle_line("{\"op\":\"get\",\"key\":\"000000000000002a\"}");
        assert!(miss.contains("\"found\":false"), "{miss}");
        let stored = s.handle_line(&put_line(42, b"artifact"));
        assert!(stored.contains("\"stored\":true"), "{stored}");
        let hit = s.handle_line("{\"op\":\"get\",\"key\":\"000000000000002a\"}");
        assert!(hit.contains("\"found\":true"), "{hit}");
        let mut hex = String::new();
        hex_encode(&mut hex, b"artifact");
        assert!(hit.contains(&hex), "{hit}");
    }

    #[test]
    fn put_with_bad_checksum_is_rejected_and_not_stored() {
        let s = service("sum");
        let mut line = put_line(7, b"payload");
        // Corrupt the payload hex without fixing the sum.
        line = line.replacen("\"payload\":\"70", "\"payload\":\"00", 1);
        let r = s.handle_line(&line);
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("checksum"), "{r}");
        let miss = s.handle_line("{\"op\":\"get\",\"key\":\"0000000000000007\"}");
        assert!(miss.contains("\"found\":false"), "corrupt put must not be stored: {miss}");
    }

    #[test]
    fn malformed_requests_get_error_frames_not_disconnects() {
        let s = service("bad");
        for line in ["{nope", "{}", "{\"op\":\"get\"}", "{\"op\":\"warp\"}"] {
            let r = s.handle_line(line);
            assert!(r.contains("\"ok\":false"), "{line} -> {r}");
        }
    }

    #[test]
    fn stat_and_shutdown() {
        let s = service("stat");
        s.handle_line(&put_line(1, b"x"));
        let r = s.handle_line("{\"op\":\"stat\"}");
        assert!(r.contains("\"puts\":1"), "{r}");
        assert!(!s.is_shut_down());
        let r = s.handle_line("{\"op\":\"shutdown\"}");
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(s.is_shut_down());
    }
}
