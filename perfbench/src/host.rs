//! The host stamp every result carries: cores, pool sizes, last-level
//! cache and compiler.

use std::path::Path;

#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Worker counts of the N-thread and the 1-thread pool.
    pub pool_threads: [usize; 2],
    /// Size of the largest data or unified cache of cpu0, if sysfs has it.
    pub llc_bytes: Option<u64>,
    /// `rustc --version`.
    pub rustc: String,
}

impl Host {
    pub fn detect(pool_threads: [usize; 2]) -> Self {
        Self {
            nproc: nproc(),
            pool_threads,
            llc_bytes: llc_bytes(Path::new("/sys/devices/system/cpu/cpu0/cache")),
            rustc: rustc_version(),
        }
    }

    /// The stamp as a JSON object, with the workload's matrix bytes and
    /// their ratio to the last-level cache.
    pub fn to_json(&self, workload: &str, seed: u64, matrix_bytes: usize) -> String {
        let (llc, ratio) = match self.llc_bytes {
            Some(llc) => (
                llc.to_string(),
                (matrix_bytes as f64 / llc as f64).to_string(),
            ),
            None => ("null".to_string(), "null".to_string()),
        };
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \
             \"pool_threads\": [{}, {}], \"llc_bytes\": {llc}, \"matrix_bytes\": {matrix_bytes}, \
             \"matrix_to_llc\": {ratio}, \"rustc\": \"{}\"}}",
            self.nproc,
            self.pool_threads[0],
            self.pool_threads[1],
            self.rustc.replace('"', "'")
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The largest non-instruction cache listed under `dir` (`index*/size`,
/// written like `107520K`).
fn llc_bytes(dir: &Path) -> Option<u64> {
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|entry| {
            let index = entry.ok()?.path();
            if read(&index.join("type"))?.trim() == "Instruction" {
                return None;
            }
            parse_size(read(&index.join("size"))?.trim())
        })
        .max()
}

fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_size("107520K"), Some(107520 * 1024));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("big"), None);
    }
}
