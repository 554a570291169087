//! Host provenance recorded with every result: core count, CPU model,
//! cache sizes, kernel and the commit being measured.

use fascia_obs::json::ObjectWriter;
use fascia_obs::{detect_cpu_model, detect_git_sha, detect_kernel};

/// What the benchmark knows about the machine it ran on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: Option<String>,
    pub kernel: Option<String>,
    pub git_sha: Option<String>,
    /// Unified or data cache size in bytes per level (1, 2, 3) of CPU 0.
    pub caches: Vec<(u32, u64)>,
}

impl Host {
    /// Reads the host's description (best effort; absent fields stay
    /// `None` or empty).
    pub fn probe() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: detect_cpu_model(),
            kernel: detect_kernel(),
            git_sha: detect_git_sha(),
            caches: read_caches(),
        }
    }

    /// Size of the highest cache level, in bytes.
    pub fn llc_bytes(&self) -> Option<u64> {
        self.caches
            .iter()
            .max_by_key(|(level, _)| *level)
            .map(|c| c.1)
    }

    fn cache(&self, level: u32) -> Option<u64> {
        self.caches.iter().find(|c| c.0 == level).map(|c| c.1)
    }

    /// One line for the human-readable report.
    pub fn summary(&self) -> String {
        let size = |b: Option<u64>| b.map_or("?".to_string(), |b| format!("{} KiB", b / 1024));
        format!(
            "nproc={} cpu={:?} L2={} L3={} kernel={} git={}",
            self.nproc,
            self.cpu_model.as_deref().unwrap_or("unknown"),
            size(self.cache(2)),
            size(self.cache(3)),
            self.kernel.as_deref().unwrap_or("unknown"),
            self.git_sha
                .as_deref()
                .unwrap_or("unknown (not a git checkout)")
        )
    }

    /// The `host` object of the provenance record.
    pub fn to_json(&self) -> String {
        let mut o = ObjectWriter::new();
        o.field_u64("nproc", self.nproc as u64);
        let opt = |o: &mut ObjectWriter, k: &str, v: &Option<String>| {
            match v {
                Some(s) => o.field_str(k, s),
                None => o.field_raw(k, "null"),
            };
        };
        opt(&mut o, "cpu_model", &self.cpu_model);
        opt(&mut o, "kernel", &self.kernel);
        opt(&mut o, "git_sha", &self.git_sha);
        for level in [1, 2, 3] {
            let key = format!("l{level}_bytes");
            match self.cache(level) {
                Some(b) => o.field_u64(&key, b),
                None => o.field_raw(&key, "null"),
            };
        }
        o.finish()
    }
}

/// Data and unified caches of CPU 0 from sysfs, as `(level, bytes)`.
fn read_caches() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_size(size.trim())) {
            out.push((level, bytes));
        }
    }
    out
}

/// Parses sysfs cache sizes such as `48K`, `2048K` or `300M`.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1024),
        'M' => (&s[..s.len() - 1], 1024 * 1024),
        'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("300M"), Some(300 * 1024 * 1024));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
    }
}
