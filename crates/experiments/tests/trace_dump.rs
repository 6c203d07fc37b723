//! Golden output of `trace_dump`: the layout summary and per-function CFG
//! dumps are decoded from the program's walk table, and must print exactly
//! what they printed when `Program` stored its functions directly. The
//! expected files under `tests/golden/` were captured from that layout.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_trace_dump");

fn dump(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "trace_dump {args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// Web's summary plus a plain function, two with indirect-call tables and
/// a trap handler.
#[test]
fn web_dump_matches_golden() {
    let want = include_str!("golden/trace_dump_web.txt");
    assert_eq!(dump(&["web", "0", "25", "31", "7005"]), want);
}

/// DB's summary plus a function with direct calls and loops.
#[test]
fn db_dump_matches_golden() {
    let want = include_str!("golden/trace_dump_db.txt");
    assert_eq!(dump(&["db", "2"]), want);
}
