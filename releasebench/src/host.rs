//! Process and host counters from `/proc`, and the directory helpers the
//! workloads reset state with.
//!
//! CPU times come in clock ticks (`USER_HZ`, 100 per second on Linux).
//! Over the seconds of CPU a run accumulates, a tick is well below the
//! run-to-run spread.

use std::fs;
use std::io;
use std::path::Path;

/// Clock ticks per second of `/proc` CPU times.
const TICKS_PER_SECOND: f64 = 100.0;

/// Whole-process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User CPU of every thread, live or exited, in seconds.
    pub user_s: f64,
    /// System CPU of every thread, live or exited, in seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Bytes passed to `write`-family calls.
    pub wchar: u64,
    /// Host steal time of the whole guest, in seconds.
    pub steal_s: f64,
}

impl ProcSample {
    /// Read the counters now.
    pub fn now() -> io::Result<Self> {
        let stat = stat_fields(&fs::read_to_string("/proc/self/stat")?)?;
        let io_stats = fs::read_to_string("/proc/self/io")?;
        let wchar = io_stats
            .lines()
            .find_map(|line| line.strip_prefix("wchar:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| invalid("no wchar in /proc/self/io"))?;
        Ok(Self {
            user_s: stat.utime as f64 / TICKS_PER_SECOND,
            sys_s: stat.stime as f64 / TICKS_PER_SECOND,
            minflt: stat.minflt,
            wchar,
            steal_s: steal_ticks()? as f64 / TICKS_PER_SECOND,
        })
    }

    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
            wchar: self.wchar - earlier.wchar,
            steal_s: self.steal_s - earlier.steal_s,
        }
    }

    /// User plus system CPU.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> io::Result<f64> {
    let stat = stat_fields(&fs::read_to_string("/proc/thread-self/stat")?)?;
    Ok((stat.utime + stat.stime) as f64 / TICKS_PER_SECOND)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| invalid("no VmHWM in /proc/self/status"))?;
    Ok(kib / 1024.0)
}

extern "C" {
    /// glibc: hand the free memory of every heap arena back to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap memory to the system, then restart the
/// peak-resident-set count (`VmHWM`) from the resident set that is left,
/// so each round's peak is read on its own. Without the trim a round's
/// peak would include whatever freed memory earlier rounds left cached in
/// the allocator's per-thread arenas, which differs from run to run.
pub fn reset_peak_rss() -> io::Result<()> {
    // SAFETY: `malloc_trim` takes a plain integer and only walks the
    // allocator's own free lists under the allocator's locks; glibc
    // allows it from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5")
}

struct Stat {
    minflt: u64,
    utime: u64,
    stime: u64,
}

/// Fields of a `/proc/.../stat` line. The command name may contain
/// spaces and parentheses, so fields are counted after the last `)`.
fn stat_fields(line: &str) -> io::Result<Stat> {
    let after = line
        .rfind(')')
        .map(|i| &line[i + 1..])
        .ok_or_else(|| invalid("malformed stat line"))?;
    // After the name, field 3 (state) is index 0: minflt is field 10,
    // utime 14, stime 15.
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |n: usize| -> io::Result<u64> {
        fields
            .get(n - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| invalid("short stat line"))
    };
    Ok(Stat {
        minflt: field(10)?,
        utime: field(14)?,
        stime: field(15)?,
    })
}

/// Host steal ticks of the whole guest (`/proc/stat`, `cpu` line, 8th value).
fn steal_ticks() -> io::Result<u64> {
    let stat = fs::read_to_string("/proc/stat")?;
    stat.lines()
        .find(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid("no steal column in /proc/stat"))
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Total bytes of the regular files under `dir`.
pub fn tree_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            total += tree_bytes(&entry.path())?;
        } else if kind.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Recreate `to` as a hard-link copy of `from`. Safe as a reset because
/// the store never writes a file in place: every durable write is a
/// fresh temp file renamed over the old name, which leaves the linked
/// original untouched.
pub fn link_tree(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            link_tree(&entry.path(), &target)?;
        } else {
            fs::hard_link(entry.path(), target)?;
        }
    }
    Ok(())
}

/// `(path, length, modification time)` of every file under `dir`, sorted:
/// a fingerprint that changes if any linked file were written in place.
pub fn tree_fingerprint(dir: &Path) -> io::Result<Vec<(String, u64, std::time::SystemTime)>> {
    let mut out = Vec::new();
    fingerprint_into(dir, dir, &mut out)?;
    out.sort();
    Ok(out)
}

fn fingerprint_into(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, u64, std::time::SystemTime)>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            fingerprint_into(root, &path, out)?;
        } else {
            let meta = entry.metadata()?;
            let name = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            out.push((name, meta.len(), meta.modified()?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_skip_names_with_spaces() {
        let line = "42 (a) b (c)) S 1 42 42 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 1 1 1";
        let stat = stat_fields(line).expect("parses");
        assert_eq!(stat.minflt, 1234);
        assert_eq!(stat.utime, 250);
        assert_eq!(stat.stime, 75);
    }

    #[test]
    fn counters_read_on_this_host() {
        let sample = ProcSample::now().expect("readable /proc");
        assert!(sample.cpu_s() >= 0.0);
        assert!(thread_cpu_s().expect("thread stat") >= 0.0);
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }
}
