//! `cargo test` inside `benchmark/`: the smoke run end to end.

use std::process::Command;

/// `bench smoke`: one-second windows over all six workloads in both
/// modes. It passes only when `BENCHMARK.json` loads (names within the
/// contract's alphabet, used once; bounds in range), every workload and
/// metric it names is emitted exactly once, in order, with its unit, and
/// every correctness check holds.
#[test]
fn smoke_emits_every_declared_metric_once() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("smoke")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn bench smoke");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "bench smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(stdout.matches(": ok").count(), 12, "six workloads in two modes:\n{stdout}");
}
