//! What the benchmark records about the machine it ran on, and the
//! host-noise guard.

use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Times a fixed SHA-256 kernel (32 MiB hashed in 64 KiB pieces, a few
/// hundred ms) in milliseconds. The guard compares this number with itself
/// only, so it judges the host and never the system under test.
pub fn calib_ms() -> f64 {
    let buf = vec![0xA5u8; 64 * 1024];
    let hash_pieces = |pieces: usize| {
        let mut acc = 0u8;
        for _ in 0..pieces {
            acc ^= fabric_common::sha256(std::hint::black_box(&buf)).as_bytes()[0];
        }
        std::hint::black_box(acc);
    };
    // Untimed lead-in, so a core that idled before the run is at speed.
    hash_pieces(64);
    let t0 = Instant::now();
    hash_pieces(512);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Whether a run bracketed by the two calibration times ran on a noisy
/// host: the two differ by more than 10 %, or their mean sits more than
/// 15 % off the median of the calibrations seen so far in this invocation.
pub fn is_noisy(before_ms: f64, after_ms: f64, history_ms: &[f64]) -> bool {
    let lo = before_ms.min(after_ms);
    // A run that died reports no calibration: nothing to judge.
    if !lo.is_finite() {
        return false;
    }
    if (before_ms - after_ms).abs() > 0.10 * lo {
        return true;
    }
    if history_ms.len() >= 3 {
        let reference = crate::stats::median(history_ms);
        let mean = (before_ms + after_ms) / 2.0;
        return (mean - reference).abs() > 0.15 * reference;
    }
    false
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Client threads of every run: `min(nproc, 4)`.
pub fn client_threads() -> usize {
    nproc().min(4)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The environment block written into every output file.
pub fn environment(seed: u64, passes: usize, seconds: u64, trace: bool, quick: bool) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("client_threads", Json::Num(client_threads() as f64)),
        // A checkout without git metadata reports "unknown".
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("seed", Json::Num(seed as f64)),
        ("passes", Json::Num(passes as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("quick", Json::Bool(quick)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_guard_thresholds() {
        assert!(!is_noisy(100.0, 105.0, &[]));
        assert!(is_noisy(100.0, 111.0, &[]));
        assert!(is_noisy(111.0, 100.0, &[]));
        // Within 10 % of each other but 20 % off what the pass has seen.
        let history = [100.0, 101.0, 99.0, 100.0];
        assert!(is_noisy(120.0, 121.0, &history));
        assert!(!is_noisy(104.0, 106.0, &history));
        // Too little history to judge against.
        assert!(!is_noisy(120.0, 121.0, &history[..2]));
    }

    #[test]
    fn host_probes_return_something() {
        assert!(nproc() >= 1);
        assert!((1..=4).contains(&client_threads()));
        assert!(peak_rss_mb() > 0.0);
        assert!(calib_ms() > 0.0);
    }
}
