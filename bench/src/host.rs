//! The host: its fingerprint and its measured ceilings (layer 0).
//!
//! Following Alappat et al. (PAPERS.md), the machine's streaming bandwidth,
//! dependent-load latency per cache level and independent-gather rate are
//! measured in the same process as the kernels, so every kernel number can
//! be read as a share of what this host can do.

use crate::report::{Metrics, Spans};
use figlut::model::rng::Rng;
use std::hint::black_box;

const LINE: usize = 64;

/// Peak resident set of this process (`VmHWM`), MiB; 0 where `/proc` is
/// absent.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let kb = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `[L1d, L2, LLC]` sizes in bytes from sysfs, with conservative
/// fall-backs (32 KiB, 1 MiB, 32 MiB) where it is unreadable.
pub fn cache_bytes() -> [usize; 3] {
    let mut out = [32 << 10, 1 << 20, 32 << 20];
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let bytes = size
            .trim()
            .strip_suffix('K')
            .and_then(|k| k.parse::<usize>().ok().map(|k| k << 10))
            .or_else(|| {
                let m = size.trim().strip_suffix('M')?;
                m.parse::<usize>().ok().map(|m| m << 20)
            });
        match (level.trim(), kind.trim(), bytes) {
            ("1", "Data" | "Unified", Some(b)) => out[0] = b,
            ("2", _, Some(b)) => out[1] = b,
            ("3", _, Some(b)) => out[2] = b,
            _ => {}
        }
    }
    out
}

/// Working sets of the ceiling probes, bytes: the three pointer-chase sets
/// that fit L1d / L2 / the LLC, and the array that fits none of them (at
/// least four times the LLC, as the bandwidth rule of thumb asks).
pub struct Footprints {
    pub l1: usize,
    pub l2: usize,
    pub llc: usize,
    pub dram: usize,
}

impl Footprints {
    pub fn of_host() -> Self {
        let [l1, l2, llc] = cache_bytes();
        Self {
            l1: l1 / 2,
            l2: l2 / 2,
            llc: (llc / 8).max(2 * l2),
            dram: (4 * llc).min(2 << 30),
        }
    }
}

/// Turn `buf` into one random cycle over its cache lines (Sattolo's
/// algorithm): slot `i * 8` holds the slot index of the next line.
fn link_lines(buf: &mut [u64], rng: &mut Rng) {
    let words = LINE / 8;
    let lines = buf.len() / words;
    let mut perm: Vec<u32> = (0..lines as u32).collect();
    for i in (1..lines).rev() {
        perm.swap(i, rng.below(i));
    }
    for i in 0..lines {
        buf[perm[i] as usize * words] = (perm[(i + 1) % lines] as usize * words) as u64;
    }
}

/// Nanoseconds per dependent load chasing the cycle in `buf`.
fn chase_ns(buf: &[u64], steps: usize, spans: &mut Spans, name: &'static str) -> f64 {
    let secs = spans.sample(name, 5, || {
        let mut p = 0usize;
        for _ in 0..steps {
            p = buf[p] as usize;
        }
        black_box(p);
    });
    secs * 1e9 / steps as f64
}

/// Measure the layer-0 ceilings into `m`. `gather_bytes` is the workload's
/// look-up-table footprint (the tables one exec call reads at random).
pub fn ceilings(m: &mut Metrics, spans: &mut Spans, gather_bytes: usize) {
    let fp = Footprints::of_host();
    let mut rng = Rng::new(0x686f_7374);
    println!(
        "# host working sets: l1 {} KiB, l2 {} KiB, llc {} KiB, dram/stream {} MiB (LLC {} KiB); gather {} KiB",
        fp.l1 >> 10,
        fp.l2 >> 10,
        fp.llc >> 10,
        fp.dram >> 20,
        cache_bytes()[2] >> 10,
        gather_bytes >> 10
    );

    for (name, bytes) in [
        ("host.dep_load_ns.l1", fp.l1),
        ("host.dep_load_ns.l2", fp.l2),
        ("host.dep_load_ns.llc", fp.llc),
    ] {
        let mut buf = vec![0u64; bytes / 8];
        link_lines(&mut buf, &mut rng);
        m.set(name, chase_ns(&buf, 1 << 20, spans, name));
    }

    // One array serves the streaming read and the DRAM-sized chase.
    let mut big: Vec<u64> = (0..(fp.dram / 8) as u64).collect();
    let secs = spans.sample("host.stream_gbps", 3, || {
        black_box(big.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
    });
    m.set("host.stream_gbps", fp.dram as f64 / secs / 1e9);
    link_lines(&mut big, &mut rng);
    m.set(
        "host.dep_load_ns.dram",
        chase_ns(&big, 1 << 20, spans, "host.dep_load_ns.dram"),
    );
    drop(big);

    let entries = (gather_bytes / 4).max(1024);
    let table: Vec<u32> = (0..entries as u32).collect();
    let idx: Vec<u32> = (0..1 << 20).map(|_| rng.below(entries) as u32).collect();
    let secs = spans.sample("host.gather_mps", 7, || {
        let sum = idx
            .iter()
            .fold(0u32, |a, &i| a.wrapping_add(table[i as usize]));
        black_box(sum);
    });
    m.set("host.gather_mps", idx.len() as f64 / secs / 1e6);

    m.set(
        "host.nproc",
        std::thread::available_parallelism().map_or(1, usize::from) as f64,
    );
    m.set(
        "host.exec_threads",
        figlut::exec::parallel::thread_count() as f64,
    );
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint as JSON object fields (no braces): what a snapshot
/// must carry to be comparable with another.
pub fn fingerprint_fields() -> String {
    let [l1, l2, llc] = cache_bytes();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "\"nproc\": {}, \"l1d_bytes\": {l1}, \"l2_bytes\": {l2}, \"llc_bytes\": {llc}, \
         \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"",
        std::thread::available_parallelism().map_or(1, usize::from),
        figlut::trace::json::escape(&cpu),
        figlut::trace::json::escape(&command_line("rustc", &["--version"])),
        figlut::trace::json::escape(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linked_lines_form_one_cycle() {
        let mut buf = vec![0u64; 8 * 257];
        link_lines(&mut buf, &mut Rng::new(1));
        let (mut p, mut seen) = (0usize, 0usize);
        loop {
            assert_eq!(p % 8, 0);
            p = buf[p] as usize;
            seen += 1;
            if p == 0 {
                break;
            }
        }
        assert_eq!(seen, 257, "every line is visited once per lap");
    }

    #[test]
    fn footprints_are_ordered() {
        let fp = Footprints::of_host();
        assert!(fp.l1 < fp.l2 && fp.l2 < fp.llc && fp.llc < fp.dram);
        assert!(fp.dram >= 4 * cache_bytes()[2] || fp.dram == 2 << 30);
    }
}
