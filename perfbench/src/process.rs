//! What the benchmark reads about its own process from Linux `/proc`.

/// Clock ticks per second of the `/proc/self/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds used so far by every thread of this
/// process, at 10 ms resolution; `NaN` when `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return f64::NAN };
    // The command name (field 2) may hold spaces; fields after it are
    // plain. utime and stime are fields 14 and 15.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |index: usize| fields.get(index).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Peak resident memory of this process so far (`VmHWM`), megabytes;
/// `NaN` when `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return f64::NAN };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A scratch directory for checkpoint files inside the working directory,
/// removed with everything in it when dropped.
pub struct Scratch {
    path: std::path::PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let path = std::path::Path::new(".perfbench-run").join(std::process::id().to_string());
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(".perfbench-run");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_on_linux() {
        let busy: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(busy > 0);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
