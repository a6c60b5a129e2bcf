//! Host topology detection (Linux sysfs).
//!
//! Builds a [`Machine`] from the machine the process is actually running
//! on, by parsing `/sys/devices/system/node` — the same information
//! `hwloc`/`libnuma` use. This makes the allocation machinery usable on
//! real hosts without adding native dependencies; on non-Linux systems or
//! when sysfs is unavailable, detection falls back to a single-node
//! machine derived from [`std::thread::available_parallelism`].
//!
//! Performance parameters (per-core GFLOPS, per-node bandwidth) are *not*
//! discoverable from sysfs; detection fills in conservative defaults and
//! callers calibrate them with measurements — exactly the paper's §III.B
//! workflow (see the `host_calibration` example and
//! `memsim::calibrate_even_scenario`).

use crate::{LinkMatrix, Machine, MachineBuilder, Result};
use std::fs;
use std::path::Path;

/// Defaults used when a quantity cannot be detected. Calibrate with
/// measurements for real use.
pub const DEFAULT_CORE_GFLOPS: f64 = 8.0;
/// Default per-node memory bandwidth (GB/s) when not calibrated.
pub const DEFAULT_NODE_BANDWIDTH_GBS: f64 = 40.0;
/// Default inter-node link bandwidth (GB/s) when not calibrated.
pub const DEFAULT_LINK_GBS: f64 = 12.0;

/// Detects the host machine from Linux sysfs, falling back to a
/// single-node description when sysfs is unavailable.
///
/// Never fails: the fallback path always succeeds.
pub fn detect_host() -> Machine {
    detect_from_sysfs(Path::new("/sys/devices/system/node")).unwrap_or_else(|_| fallback_machine())
}

/// A single-node machine with `available_parallelism` cores.
pub(crate) fn fallback_machine() -> Machine {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    MachineBuilder::new()
        .name("host-fallback")
        .symmetric_nodes(1, cores)
        .core_peak_gflops(DEFAULT_CORE_GFLOPS)
        .node_bandwidth_gbs(DEFAULT_NODE_BANDWIDTH_GBS)
        .uniform_link_gbs(DEFAULT_LINK_GBS)
        .build()
        .expect("fallback machine is valid")
}

/// Parses a sysfs-style node directory. Exposed for testing against
/// fixture trees; use [`detect_host`] for the real host.
pub(crate) fn detect_from_sysfs(node_dir: &Path) -> Result<Machine> {
    // Which nodes exist? /sys/devices/system/node/online is a cpulist-style
    // string like "0-3" or "0,2".
    let online = fs::read_to_string(node_dir.join("online"))
        .map_err(|e| crate::TopologyError::Serde(format!("sysfs: {e}")))?;
    let node_ids = parse_cpulist(online.trim())
        .ok_or_else(|| crate::TopologyError::Serde(format!("bad node list {online:?}")))?;
    if node_ids.is_empty() {
        return Err(crate::TopologyError::NoNodes);
    }

    let mut builder = MachineBuilder::new()
        .name("host")
        .core_peak_gflops(DEFAULT_CORE_GFLOPS);
    let mut cores_per_node = Vec::new();
    for &n in &node_ids {
        let cpulist = fs::read_to_string(node_dir.join(format!("node{n}/cpulist")))
            .map_err(|e| crate::TopologyError::Serde(format!("sysfs node{n}: {e}")))?;
        let cpus = parse_cpulist(cpulist.trim()).ok_or_else(|| {
            crate::TopologyError::Serde(format!("bad cpulist {cpulist:?} for node{n}"))
        })?;
        // Memory size: MemTotal line of node{n}/meminfo, in kB. Optional.
        let mem_gib = fs::read_to_string(node_dir.join(format!("node{n}/meminfo")))
            .ok()
            .and_then(|m| parse_meminfo_kb(&m))
            .map(|kb| kb as f64 / (1024.0 * 1024.0))
            .unwrap_or(16.0);
        cores_per_node.push(cpus.len());
        builder = builder.add_node(
            cpus.len().max(1),
            DEFAULT_NODE_BANDWIDTH_GBS,
            mem_gib.max(0.5),
        );
    }

    // Distances (SLIT): node{n}/distance is a space-separated row. We map
    // relative distances to link bandwidths: bandwidth = link * 10 / d
    // (local distance is conventionally 10).
    let dim = node_ids.len();
    let mut rows = vec![0.0; dim * dim];
    let mut have_distances = true;
    for (i, &n) in node_ids.iter().enumerate() {
        match fs::read_to_string(node_dir.join(format!("node{n}/distance"))) {
            Ok(line) => {
                let ds: Vec<f64> = line
                    .split_whitespace()
                    .filter_map(|t| t.parse().ok())
                    .collect();
                if ds.len() != dim {
                    have_distances = false;
                    break;
                }
                for (j, &d) in ds.iter().enumerate() {
                    if i != j && d > 0.0 {
                        rows[i * dim + j] = DEFAULT_LINK_GBS * 10.0 / d;
                    }
                }
            }
            Err(_) => {
                have_distances = false;
                break;
            }
        }
    }
    let builder = if have_distances && dim > 1 {
        builder.link_matrix(LinkMatrix::from_rows(dim, &rows)?)
    } else {
        builder.uniform_link_gbs(DEFAULT_LINK_GBS)
    };
    builder.build()
}

/// Parses a Linux cpulist string ("0-3,8,10-11") into sorted ids.
pub(crate) fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    if s.is_empty() {
        return Some(out);
    }
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                if hi < lo {
                    return None;
                }
                out.extend(lo..=hi);
            }
            None => out.push(part.parse().ok()?),
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

/// Extracts the `MemTotal:` value (kB) from a node meminfo blob.
fn parse_meminfo_kb(meminfo: &str) -> Option<u64> {
    for line in meminfo.lines() {
        // Format: "Node 0 MemTotal:       8123456 kB"
        if line.contains("MemTotal:") {
            return line
                .split_whitespace()
                .rev()
                .find_map(|tok| tok.parse::<u64>().ok());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn cpulist_parsing() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0,2,4"), Some(vec![0, 2, 4]));
        assert_eq!(parse_cpulist("0-1,8,10-11"), Some(vec![0, 1, 8, 10, 11]));
        assert_eq!(parse_cpulist("5"), Some(vec![5]));
        assert_eq!(parse_cpulist(""), Some(vec![]));
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("a-b"), None);
        // Duplicates collapse.
        assert_eq!(parse_cpulist("1,1,1"), Some(vec![1]));
    }

    #[test]
    fn meminfo_parsing() {
        let blob = "Node 0 MemTotal:       8388608 kB\nNode 0 MemFree: 123 kB\n";
        assert_eq!(parse_meminfo_kb(blob), Some(8388608));
        assert_eq!(parse_meminfo_kb("nothing here"), None);
    }

    #[test]
    fn fallback_is_always_valid() {
        let m = fallback_machine();
        assert_eq!(m.num_nodes(), 1);
        assert!(m.total_cores() >= 1);
    }

    #[test]
    fn detect_host_never_panics() {
        // On Linux CI this parses the real sysfs; elsewhere it falls back.
        let m = detect_host();
        assert!(m.num_nodes() >= 1);
        assert!(m.total_cores() >= 1);
    }

    #[test]
    fn detect_from_fixture_tree() {
        // Build a fake sysfs tree: 2 nodes x 2 cpus with a SLIT matrix.
        let dir = std::env::temp_dir().join(format!(
            "numa-coop-sysfs-{}-{}",
            std::process::id(),
            line!()
        ));
        let mk = |p: &str, content: &str| {
            let path = dir.join(p);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
        };
        mk("online", "0-1\n");
        mk("node0/cpulist", "0-1\n");
        mk("node1/cpulist", "2-3\n");
        mk("node0/meminfo", "Node 0 MemTotal: 4194304 kB\n");
        mk("node1/meminfo", "Node 1 MemTotal: 4194304 kB\n");
        mk("node0/distance", "10 21\n");
        mk("node1/distance", "21 10\n");

        let m = detect_from_sysfs(&dir).unwrap();
        assert_eq!(m.num_nodes(), 2);
        assert_eq!(m.total_cores(), 4);
        assert_eq!(m.node(NodeId(1)).num_cores(), 2);
        assert!((m.node(NodeId(0)).memory_gib - 4.0).abs() < 1e-9);
        // Distance 21 -> link = 12 * 10/21.
        let expected = DEFAULT_LINK_GBS * 10.0 / 21.0;
        assert!((m.links().link(NodeId(0), NodeId(1)) - expected).abs() < 1e-9);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detect_from_missing_tree_errors() {
        let bogus = Path::new("/nonexistent/numa-coop-test");
        assert!(detect_from_sysfs(bogus).is_err());
    }

    #[test]
    fn detect_without_distances_uses_uniform_links() {
        let dir = std::env::temp_dir().join(format!(
            "numa-coop-sysfs-{}-{}",
            std::process::id(),
            line!()
        ));
        let mk = |p: &str, content: &str| {
            let path = dir.join(p);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
        };
        mk("online", "0-1\n");
        mk("node0/cpulist", "0\n");
        mk("node1/cpulist", "1\n");
        let m = detect_from_sysfs(&dir).unwrap();
        assert!((m.links().link(NodeId(0), NodeId(1)) - DEFAULT_LINK_GBS).abs() < 1e-9);
        fs::remove_dir_all(&dir).ok();
    }
}
