//! The crash-recovery proof: SIGKILL a real `cfpd` process mid-sweep,
//! restart it on the same state directory, and the job resumes from its
//! checkpoint journal and finishes **bit-identically** — the resumed
//! result's FNV digest equals the digest of an uninterrupted in-process
//! run of the same spec.

mod common;

use common::serve::{str_field, u64_field, Client};
use custom_fit::serve::json::Json;
use custom_fit::serve::{parse_request, Request};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The killed job: every unit stalls 50 ms, so the full run takes
/// ~800 ms — long enough that the kill below reliably lands mid-sweep,
/// short enough that resuming is quick. Stalls are latency-only, so the
/// digest must match the unstalled spec's.
const SLOW_JOB: &str = r#"{"op":"submit","job":{"benches":["D","G"],"preset":"smoke","fault":{"kind":"stall","millis":50,"seed":1,"denominator":1}}}"#;

struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<std::process::ChildStdout>,
}

/// Kill on drop: a test that panics must not leak a `cfpd` that holds
/// the test runner's output pipe through its inherited stderr. After a
/// clean exit both calls are no-ops.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The test's state directory: removed when the test passes, kept (and
/// named on stderr) when it panics, so a failure leaves its journal.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("state directory kept: {}", self.0.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Units in the checkpoint journal right now: its lines minus the
/// header. The journal is replaced by rename, so a read sees a whole
/// file; one that does not exist yet holds nothing.
fn journaled_units(journal: &Path) -> u64 {
    let text = std::fs::read_to_string(journal).unwrap_or_default();
    (text.lines().count() as u64).saturating_sub(1)
}

/// Start the real `cfpd` binary on `state` and scrape its listen
/// address from stdout.
fn start_cfpd(state: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfpd"))
        .args(["--state", &state.display().to_string(), "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn cfpd");
    let mut stdout = BufReader::new(child.stdout.take().expect("cfpd stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim_end()
        .strip_prefix("cfpd listening on ")
        .unwrap_or_else(|| panic!("unexpected cfpd banner: {line:?}"))
        .parse()
        .expect("listen address");
    Daemon {
        child,
        addr,
        stdout,
    }
}

#[test]
fn a_sigkilled_daemon_resumes_the_job_bit_identically() {
    let state_guard = StateDir(common::serve::state_dir("recovery"));
    let state = &state_guard.0;
    let journal = state.join("jobs").join("job-000000.ck");

    // ---- First life: accept the job, make progress, die. ------------
    let mut daemon = start_cfpd(state);
    let mut client = Client::connect(daemon.addr);
    let accepted = client.request(SLOW_JOB);
    assert_eq!(
        accepted.get("ok").and_then(Json::as_bool),
        Some(true),
        "{accepted:?}"
    );
    let id = str_field(&accepted, "id");
    assert_eq!(id, "job-000000");

    // Wait until the run is demonstrably mid-sweep: some units in the
    // journal, with ≥ 500 ms of stalled units still ahead when we pull
    // the plug. The journal on disk is what the second life will read;
    // `status` counts progress events, which run ahead of it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let journaled = loop {
        let status = client.request(&format!(r#"{{"op":"status","id":"{id}"}}"#));
        let state_token = str_field(&status, "state");
        let units = journaled_units(&journal);
        if state_token == "running" && (3..=8).contains(&units) {
            break units;
        }
        assert_ne!(state_token, "done", "job finished before the kill");
        assert!(Instant::now() < deadline, "no mid-sweep window observed");
        std::thread::sleep(Duration::from_millis(10));
    };
    daemon.child.kill().expect("SIGKILL cfpd"); // kill(2), not a shutdown
    daemon.child.wait().expect("reap cfpd");
    drop(client);

    // The job was journaled but never finished: canonical line and
    // checkpoint journal on disk, no result.
    let jobs = state.join("jobs");
    assert!(jobs.join("job-000000.job").exists());
    assert!(jobs.join("job-000000.ck").exists());
    assert!(
        !jobs.join("job-000000.result").exists(),
        "the kill must land before completion"
    );

    // ---- Second life: recover, resume, finish. ----------------------
    let mut daemon = start_cfpd(state);
    let mut banner = String::new();
    daemon.stdout.read_line(&mut banner).expect("recovery line");
    assert_eq!(banner.trim_end(), "cfpd recovered 1 incomplete job(s)");

    let mut client = Client::connect(daemon.addr);
    let result = client.request(&format!(r#"{{"op":"result","id":"{id}"}}"#));
    assert_eq!(
        result.get("state").and_then(Json::as_str),
        Some("done"),
        "{result:?}"
    );
    assert_eq!(u64_field(&result, "attempts"), 1, "a resume is not a retry");
    assert!(
        u64_field(&result, "resumed_units") >= journaled,
        "the second life must replay the {journaled} units journaled before the kill, \
         not recompute them: {result:?}"
    );

    // Bit-identity: the resumed digest equals an uninterrupted run's.
    // (Computed in-process with the stall disabled — stalls are sleeps,
    // not semantics, which this equality also re-proves.)
    let Ok(Request::Submit(spec)) = parse_request(SLOW_JOB) else {
        panic!("the test job must parse");
    };
    let ck = state.join("uninterrupted.ck");
    let mut config = custom_fit::serve::job::explore_config(&spec, &ck);
    config.fault = None;
    let ex = custom_fit::dse::Exploration::try_run(&config).expect("uninterrupted run");
    let expected = format!("{:016x}", custom_fit::serve::job::result_digest(&ex));
    assert_eq!(
        str_field(&result, "digest"),
        expected,
        "kill-and-resume must be invisible in the result surface"
    );

    // Clean exit this time: the protocol shutdown op.
    let bye = client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    let exit = daemon.child.wait().expect("cfpd exits");
    assert!(exit.success(), "{exit:?}");
}
