//! Process hygiene: the run's private work directory, supervised
//! children that are always reaped, `/proc` accounting, and the
//! SIGINT/SIGTERM flag.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, fixed
/// at 100 on Linux whatever the kernel's own tick rate).
const TICKS_PER_SECOND: f64 = 100.0;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn kill(pid: i32, signum: i32) -> i32;
}

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// Send `signum` to a process this harness started (or one of that
/// process's children).
fn send_signal(pid: u32, signum: i32) {
    // SAFETY: `kill` is the C library's and takes plain integers; a
    // stale pid at worst returns ESRCH.
    unsafe {
        kill(pid as i32, signum);
    }
}

/// Turn SIGINT and SIGTERM into a flag, so an interrupted run unwinds
/// through the `Drop`s that reap its children instead of dying with
/// them still running.
pub fn install_signal_flag() {
    // SAFETY: `signal` is the C library's; the handler only stores to
    // an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Fail when the run was interrupted; called between steps and inside
/// every wait loop.
pub fn check_interrupted() -> Result<(), String> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        Err("interrupted".to_string())
    } else {
        Ok(())
    }
}

/// The run's private directory, `benchmark/.work/<run-id>/`, removed on
/// drop (success, failure and interrupt alike).
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create a fresh directory for this process under `root`.
    pub fn create(root: &Path) -> Result<WorkDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = root.join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory `name` (replacing an earlier one).
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPU seconds and peak resident memory of a process tree member.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU seconds consumed so far.
    pub cpu_seconds: f64,
    /// Peak resident set size (`VmHWM`), MiB.
    pub peak_rss_mib: f64,
}

fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// CPU seconds (all threads) and `VmHWM` of live process `pid`.
pub fn usage_of(pid: u32) -> Option<Usage> {
    let fields = stat_fields(pid)?;
    // Fields 14 and 15 (utime, stime) sit at offsets 11 and 12 here.
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let hwm_kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())?;
    Some(Usage {
        cpu_seconds: ticks / TICKS_PER_SECOND,
        peak_rss_mib: hwm_kib / 1024.0,
    })
}

/// CPU time the whole machine has accounted for since boot, in clock
/// ticks, and how much of it the hypervisor withheld (steal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineTicks {
    total: u64,
    steal: u64,
}

impl MachineTicks {
    /// Read off the `cpu` line of `/proc/stat`: user, nice, system, idle,
    /// iowait, irq, softirq, steal (guest time is inside user).
    fn parse(stat: &str) -> Option<MachineTicks> {
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .take(8)
            .map(|field| field.parse().ok())
            .collect::<Option<_>>()?;
        Some(MachineTicks {
            total: ticks.iter().sum(),
            steal: *ticks.get(7)?,
        })
    }

    /// The machine's counters now (zeros where `/proc/stat` cannot be
    /// read, so that nothing ever looks stolen there).
    pub fn now() -> MachineTicks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| MachineTicks::parse(&stat))
            .unwrap_or_default()
    }

    /// The share of the machine's CPU time since `earlier` that the
    /// hypervisor gave to someone else while a vCPU here wanted to run.
    pub fn stolen_share_since(&self, earlier: &MachineTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Live direct children of `pid` (the shard processes of a fleet).
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&candidate| {
            stat_fields(candidate)
                .and_then(|f| f.get(1)?.parse::<u32>().ok())
                .is_some_and(|ppid| ppid == pid)
        })
        .collect();
    out.sort_unstable();
    out
}

/// CPU seconds of children this process has already waited for.
pub fn reaped_children_cpu_seconds() -> f64 {
    stat_fields(std::process::id())
        .and_then(|f| {
            // Fields 16 and 17 (cutime, cstime).
            Some(f.get(13)?.parse::<f64>().ok()? + f.get(14)?.parse::<f64>().ok()?)
        })
        .unwrap_or(0.0)
        / TICKS_PER_SECOND
}

/// A supervised child process. Its stderr is drained by a thread into
/// a line log (searchable, timestamped); dropping the guard kills and
/// reaps the child, so no exit path leaves it behind.
pub struct Supervised {
    name: String,
    child: Child,
    log: Arc<Mutex<Vec<(Instant, String)>>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Supervised {
    /// Spawn `command` with stdin closed, stdout discarded and stderr
    /// captured.
    pub fn spawn(name: &str, command: &mut Command) -> Result<Supervised, String> {
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Ok(mut log) = sink.lock() {
                    log.push((Instant::now(), line));
                }
            }
        });
        Ok(Supervised {
            name: name.to_string(),
            child,
            log,
            reader: Some(reader),
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The first captured stderr line containing `needle`, with the
    /// instant it was read.
    pub fn find_line(&self, needle: &str) -> Option<(Instant, String)> {
        let log = self.log.lock().ok()?;
        log.iter().find(|(_, l)| l.contains(needle)).cloned()
    }

    /// Every captured stderr line so far, each with the instant it was
    /// read.
    pub fn lines(&self) -> Vec<(Instant, String)> {
        self.log.lock().map(|log| log.clone()).unwrap_or_default()
    }

    /// The last lines of captured stderr, for error messages.
    pub fn tail(&self, lines: usize) -> String {
        let Ok(log) = self.log.lock() else {
            return String::new();
        };
        let start = log.len().saturating_sub(lines);
        log[start..]
            .iter()
            .map(|(_, l)| l.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Wait until a stderr line containing `needle` appears. Fails when
    /// the child exits first, on interrupt, or after `timeout`.
    pub fn wait_for_line(
        &mut self,
        needle: &str,
        timeout: Duration,
    ) -> Result<(Instant, String), String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(hit) = self.find_line(needle) {
                return Ok(hit);
            }
            check_interrupted()?;
            if let Ok(Some(status)) = self.child.try_wait() {
                // The reader may still hold the final lines.
                std::thread::sleep(Duration::from_millis(20));
                if let Some(hit) = self.find_line(needle) {
                    return Ok(hit);
                }
                return Err(format!(
                    "{} exited ({status}) before printing {needle:?}:\n{}",
                    self.name,
                    self.tail(12)
                ));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{} did not print {needle:?} within {timeout:?}:\n{}",
                    self.name,
                    self.tail(12)
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Wait for the child to exit by itself, sampling its peak resident
    /// memory as it runs (`/proc` forgets a process once reaped).
    /// Returns `(exit ok, peak MiB)`.
    pub fn wait_sampling(&mut self, timeout: Duration) -> Result<(bool, f64), String> {
        let deadline = Instant::now() + timeout;
        let mut peak = 0.0f64;
        // Poll the exit every millisecond (the wall clock of a 0.1 s
        // child is a metric) but read `/proc` only every eighth time.
        for tick in 0u64.. {
            if tick % 8 == 0 {
                if let Some(usage) = usage_of(self.pid()) {
                    peak = peak.max(usage.peak_rss_mib);
                }
            }
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.join_reader();
                    return Ok((status.success(), peak));
                }
                Ok(None) => {}
                Err(e) => return Err(format!("wait {}: {e}", self.name)),
            }
            check_interrupted()?;
            if Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(format!("{} did not exit within {timeout:?}", self.name))
    }

    /// Ask the child to drain (SIGTERM), wait up to `grace`, then kill.
    /// Always reaps. Returns whether it exited cleanly by itself.
    pub fn stop(&mut self, grace: Duration) -> bool {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            self.join_reader();
            return false;
        }
        send_signal(self.pid(), SIGTERM);
        let deadline = Instant::now() + grace;
        let mut clean = false;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                clean = status.success();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !clean {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.join_reader();
        clean
    }

    fn join_reader(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Supervised {
    fn drop(&mut self) {
        // Shard children of a `qgx serve` fleet exit on their stdin
        // closing, which the server's death causes; kill them too in
        // case the server is wedged.
        let comm = |pid: u32| std::fs::read_to_string(format!("/proc/{pid}/comm")).ok();
        let grandchildren: Vec<(u32, Option<String>)> = children_of(self.pid())
            .into_iter()
            .map(|pid| (pid, comm(pid)))
            .collect();
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            self.stop(Duration::from_secs(3));
        }
        for (pid, name) in grandchildren {
            // Still the same program under that pid, not a recycled one.
            if name.is_some() && comm(pid) == name {
                send_signal(pid, SIGKILL);
            }
        }
        self.join_reader();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervised_child_is_reaped_on_drop_and_its_stderr_is_searchable() {
        let mut child = Supervised::spawn(
            "sh",
            Command::new("sh").args(["-c", "echo ready 1>&2; exec sleep 30"]),
        )
        .unwrap();
        let pid = child.pid();
        let (_, line) = child
            .wait_for_line("ready", Duration::from_secs(5))
            .unwrap();
        assert_eq!(line, "ready");
        assert!(usage_of(pid).is_some());
        drop(child);
        assert!(usage_of(pid).is_none(), "child survived its guard");
    }

    #[test]
    fn stolen_share_is_read_off_the_cpu_line() {
        let before = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        let after = "cpu  150 0 70 1200 10 0 5 65 7 0\n";
        let (before, after) = (
            MachineTicks::parse(before).unwrap(),
            MachineTicks::parse(after).unwrap(),
        );
        // 500 ticks passed, 30 of them stolen.
        assert!((after.stolen_share_since(&before) - 0.06).abs() < 1e-12);
        assert_eq!(before.stolen_share_since(&after), 0.0);
        assert_eq!(MachineTicks::parse("intr 1 2 3"), None);
        assert!(MachineTicks::now().total > 0);
    }

    #[test]
    fn own_usage_is_readable() {
        let usage = usage_of(std::process::id()).unwrap();
        assert!(usage.peak_rss_mib > 0.5);
        assert!(children_of(1).len() < 100_000);
    }
}
