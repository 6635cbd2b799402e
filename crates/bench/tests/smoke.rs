//! The end-to-end smoke proofs of the serving drivers: each bench binary
//! runs as a real process at `NEMO_SMALL=1` in a scratch directory, its
//! exit code is checked, and its transcripts and documents are compared
//! byte for byte (`cmp`). Crash cases are real process exits: a driver
//! asked to crash stops without its final fsync and exits 3, and the
//! group-commit kill exits the process the instant an append is acked.
//!
//! The exhaustive single-fault sweep is not repeated here: the
//! `fault_injection` and `fault_scripts` suites of `nemo-serve` already run
//! it, at a longer stream.

use std::path::PathBuf;
use std::process::Command;

const SERVE: &str = env!("CARGO_BIN_EXE_serve_bench");
const DURABILITY: &str = env!("CARGO_BIN_EXE_durability_bench");
const SHARD: &str = env!("CARGO_BIN_EXE_shard_bench");
const OBS: &str = env!("CARGO_BIN_EXE_obs_bench");

/// A scratch directory for one proof, removed when the proof passes.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("nemo-smoke-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }

    /// Runs `bin args` inside the scratch directory at `NEMO_SMALL=1` and
    /// `NEMO_THREADS=threads`, asserts that it exits with `code`, and
    /// returns its stdout.
    fn run(&self, bin: &str, threads: usize, args: &[&str], code: i32) -> String {
        let output = Command::new(bin)
            .args(args)
            .current_dir(&self.0)
            .env("NEMO_SMALL", "1")
            .env("NEMO_THREADS", threads.to_string())
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(code),
            "{bin} {args:?} at NEMO_THREADS={threads}\nstderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("stdout is UTF-8")
    }

    /// `cmp a b`: the two files hold the same bytes.
    fn assert_same(&self, a: &str, b: &str) {
        let read = |name: &str| {
            std::fs::read(self.0.join(name)).unwrap_or_else(|e| panic!("cannot read {name}: {e}"))
        };
        assert!(read(a) == read(b), "{a} and {b} differ");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// The load driver's transcript is the same at 1 and 4 worker threads.
#[test]
fn serve_transcripts_are_thread_invariant() {
    let s = Scratch::new("serve");
    for threads in [1, 4] {
        let out = format!("serve-t{threads}.txt");
        s.run(SERVE, threads, &["--transcript", &out], 0);
    }
    s.assert_same("serve-t1.txt", "serve-t4.txt");
}

/// Killed mid-stream (at 1 and 4 threads) or twice mid-sweep, the
/// durability driver resumes to the uninterrupted transcript.
#[test]
fn recovery_resumes_to_the_uninterrupted_transcript() {
    let s = Scratch::new("recovery");
    s.run(
        DURABILITY,
        1,
        &["--dir", "store-full", "--transcript", "dur-full.txt"],
        0,
    );
    for threads in [1, 4] {
        let store = format!("store-crash-t{threads}");
        let out = format!("dur-resumed-t{threads}.txt");
        s.run(
            DURABILITY,
            threads,
            &["--dir", &store, "--crash-at", "6"],
            3,
        );
        s.run(
            DURABILITY,
            threads,
            &["--dir", &store, "--transcript", &out],
            0,
        );
        s.assert_same("dur-full.txt", &out);
    }
    for budget in ["1", "3"] {
        s.run(
            DURABILITY,
            2,
            &["--dir", "store-sweep-crash", "--crash-sweep", budget],
            3,
        );
    }
    s.run(
        DURABILITY,
        2,
        &[
            "--dir",
            "store-sweep-crash",
            "--transcript",
            "dur-resumed-sweep.txt",
        ],
        0,
    );
    s.assert_same("dur-full.txt", "dur-resumed-sweep.txt");
}

/// A retryable fault is absorbed (exit 0); a failed fsync surfaces
/// (exit 3), and the resumed run matches the uninterrupted transcript.
#[test]
fn faults_are_absorbed_or_surface_and_resume() {
    let s = Scratch::new("fault");
    s.run(
        DURABILITY,
        1,
        &[
            "--dir",
            "fault-store-full",
            "--transcript",
            "fault-full.txt",
        ],
        0,
    );
    let absorbed = [
        "--dir",
        "fault-store-eio",
        "--fault-at",
        "20",
        "--fault-kind",
        "eio",
    ];
    s.run(DURABILITY, 1, &absorbed, 0);
    let surfaced = [
        "--dir",
        "fault-store-fsync",
        "--fault-at",
        "45",
        "--fault-kind",
        "fsync",
    ];
    s.run(DURABILITY, 1, &surfaced, 3);
    s.run(
        DURABILITY,
        1,
        &[
            "--dir",
            "fault-store-fsync",
            "--transcript",
            "fault-resumed.txt",
        ],
        0,
    );
    s.assert_same("fault-full.txt", "fault-resumed.txt");
}

/// Sharded transcripts are the same across threads {1, 4} x shards
/// {1, 4}, a killed sharded run resumes to them, and a hard kill under
/// group commit leaves every acked epoch on disk.
#[test]
fn shard_transcripts_are_invariant_and_survive_kills() {
    let s = Scratch::new("shard");
    for threads in [1, 4] {
        for shards in ["1", "4"] {
            let store = format!("shard-store-t{threads}-s{shards}");
            let out = format!("shard-t{threads}-s{shards}.txt");
            s.run(
                SHARD,
                threads,
                &["--dir", &store, "--shards", shards, "--transcript", &out],
                0,
            );
        }
    }
    for out in ["shard-t1-s4.txt", "shard-t4-s1.txt", "shard-t4-s4.txt"] {
        s.assert_same("shard-t1-s1.txt", out);
    }
    for shards in ["1", "4"] {
        let store = format!("shard-store-crash-s{shards}");
        let out = format!("shard-resumed-s{shards}.txt");
        s.run(
            SHARD,
            4,
            &["--dir", &store, "--shards", shards, "--crash-at", "8"],
            3,
        );
        s.run(
            SHARD,
            4,
            &["--dir", &store, "--shards", shards, "--transcript", &out],
            0,
        );
        s.assert_same("shard-t1-s1.txt", &out);
    }
    let crash = ["--group-crash", "--dir", "group-store", "--after", "200"];
    let stdout = s.run(SHARD, 4, &crash, 3);
    let acked = stdout
        .trim()
        .strip_prefix("acked=")
        .unwrap_or_else(|| panic!("--group-crash printed {stdout:?}"));
    s.run(
        SHARD,
        4,
        &["--group-verify", "--dir", "group-store", "--acked", acked],
        0,
    );
}

/// Over threads {1, 4} x shards {1, 2, 4}, every stats, trace and Chrome
/// document validates (or `obs_bench` exits non-zero), and the logical
/// metrics and logical trace skeletons are byte-identical.
#[test]
fn obs_logical_views_are_thread_and_shard_invariant() {
    let s = Scratch::new("obs");
    for threads in [1, 4] {
        for shards in ["1", "2", "4"] {
            let file = |kind: &str, ext: &str| format!("obs-{kind}-t{threads}-s{shards}.{ext}");
            let args = [
                ("--logical", file("logical", "json")),
                ("--doc", file("doc", "json")),
                ("--traces", file("traces", "json")),
                ("--chrome", file("chrome", "json")),
                ("--skeleton", file("skeleton", "txt")),
            ];
            let mut argv = vec!["--shards", shards];
            for (flag, path) in &args {
                argv.extend([*flag, path.as_str()]);
            }
            s.run(OBS, threads, &argv, 0);
            s.assert_same("obs-logical-t1-s1.json", &args[0].1);
            s.assert_same("obs-skeleton-t1-s1.txt", &args[4].1);
        }
    }
}
