//! Spawn one child process and read *its own* resource usage with
//! `wait4(2)`: wall seconds spawn→exit, user+sys CPU seconds, peak RSS.
//!
//! `wait4` reaps exactly the child it names, so every repetition gets its
//! own `rusage` — no `/proc` polling thread, and none of the
//! accumulate-forever semantics of `RUSAGE_CHILDREN`. The workspace has no
//! `libc` crate, hence the few lines of FFI.

use std::io;
use std::os::raw::{c_int, c_long};
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

impl Timeval {
    fn secs(&self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// `struct rusage` of Linux (x86-64 and aarch64 share the layout): two
/// `timeval`s, then fourteen `long`s of which `ru_maxrss` (KiB) is the
/// first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: c_long,
    rest: [c_long; 13],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn getrusage(who: c_int, rusage: *mut Rusage) -> c_int;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child (all its threads).
    pub cpu_s: f64,
    /// Peak resident set of the child, MiB.
    pub peak_rss_mb: f64,
    /// The child exited normally with status 0.
    pub ok: bool,
}

/// Run `program args…` to completion (stdin/stdout closed, stderr
/// inherited so a diagnostic from the child reaches the terminal).
pub fn run_child(program: &str, args: &[String]) -> io::Result<ChildRun> {
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()?;
    let mut status: c_int = 0;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are live, writable and of the layout the
    // kernel fills; the pid is a child of this process that nothing else
    // waits on (`Child` never reaps on drop, and is not waited below).
    let reaped = unsafe { wait4(child.id() as c_int, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ChildRun {
        wall_s,
        cpu_s: ru.utime.secs() + ru.stime.secs(),
        peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0 is exactly "the status word is 0".
        ok: status == 0,
    })
}

/// This process's own peak RSS in MiB. A child's `ru_maxrss` starts from
/// the spawning process's resident set (the kernel folds the pre-`exec`
/// image in), so a harness that has grown larger than the program it times
/// would silently report its own size; the end-to-end runner checks this
/// floor stays below every child reading.
pub fn self_peak_rss_mb() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is live, writable and of the layout the kernel fills.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    ru.maxrss_kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> ChildRun {
        run_child("sh", &["-c".to_string(), script.to_string()]).expect("sh spawns")
    }

    #[test]
    fn child_touching_n_mib_reports_at_least_n() {
        // dd allocates one `bs`-sized buffer and reads zeros into it, i.e.
        // touches every page of it.
        let small = sh("dd if=/dev/zero of=/dev/null bs=1M count=1 2>/dev/null");
        let big = sh("dd if=/dev/zero of=/dev/null bs=96M count=1 2>/dev/null");
        assert!(big.ok && small.ok);
        assert!(big.peak_rss_mb >= 96.0, "reported {}", big.peak_rss_mb);
        // Per-child, not cumulative: a later small child is not charged
        // for an earlier big one.
        let after = sh("dd if=/dev/zero of=/dev/null bs=1M count=1 2>/dev/null");
        assert!(
            after.peak_rss_mb < 96.0,
            "small child after big one reported {}",
            after.peak_rss_mb
        );
    }

    #[test]
    fn exit_status_and_cpu_time_are_the_childs() {
        assert!(!sh("exit 3").ok);
        assert!(!sh("kill -9 $$").ok);
        let spin = sh("i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done");
        assert!(spin.ok);
        assert!(spin.cpu_s > 0.0 && spin.cpu_s <= spin.wall_s * 1.5 + 0.05);
    }

    #[test]
    fn own_peak_is_positive() {
        assert!(self_peak_rss_mb() > 1.0);
    }
}
