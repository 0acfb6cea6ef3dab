//! Temporal and causal filtering of raw log events.
//!
//! Raw cluster logs over-report: a single SAN incident produces a burst of
//! notifications, and a single transient network glitch makes hundreds of
//! compute nodes log a mount failure within seconds. The paper notes that
//! "to extract accurate failure event information, we filter failure logs
//! based on temporal and causal relationships between events"; this module
//! implements those filters so the downstream analyses count *incidents*
//! rather than raw lines.

use serde::{Deserialize, Serialize};

use crate::event::{MountFailure, OutageCause, OutageRecord};

/// A mount-failure storm: a set of per-node reports coalesced into one
/// incident because they occurred close together in time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MountStorm {
    /// Time of the first report, hours since the window origin.
    pub start_hours: f64,
    /// Time of the last report, hours since the window origin.
    pub end_hours: f64,
    /// Number of *distinct* compute nodes that reported the failure.
    pub distinct_nodes: usize,
    /// Total number of raw report lines coalesced into this storm.
    pub raw_reports: usize,
}

/// Coalesces outage records of the *same cause* whose windows overlap or are
/// separated by at most `gap_hours` into single incidents.
///
/// Overlapping outages of different causes are left untouched — they are
/// causally distinct incidents even if simultaneous.
pub(crate) fn coalesce_outages(outages: &[OutageRecord], gap_hours: f64) -> Vec<OutageRecord> {
    let mut result: Vec<OutageRecord> = Vec::new();
    for cause in crate::event::OutageCause::all() {
        let mut of_cause: Vec<OutageRecord> =
            outages.iter().filter(|o| o.cause == cause).copied().collect();
        of_cause.sort_by(|a, b| a.start_hours.partial_cmp(&b.start_hours).expect("finite times"));
        let mut merged: Vec<OutageRecord> = Vec::new();
        for o in of_cause {
            match merged.last_mut() {
                Some(last) if o.start_hours <= last.end_hours + gap_hours => {
                    last.end_hours = last.end_hours.max(o.end_hours);
                }
                _ => merged.push(o),
            }
        }
        result.extend(merged);
    }
    result.sort_by(|a, b| a.start_hours.partial_cmp(&b.start_hours).expect("finite times"));
    result
}

/// Groups per-node mount failures into storms: reports separated by at most
/// `gap_hours` belong to the same storm.
pub(crate) fn coalesce_mount_failures(
    failures: &[MountFailure],
    gap_hours: f64,
) -> Vec<MountStorm> {
    if failures.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<MountFailure> = failures.to_vec();
    sorted.sort_by(|a, b| a.time_hours.partial_cmp(&b.time_hours).expect("finite times"));

    let mut storms: Vec<MountStorm> = Vec::new();
    let mut current: Vec<MountFailure> = vec![sorted[0]];
    for &f in &sorted[1..] {
        let last_time = current.last().expect("current storm is non-empty").time_hours;
        if f.time_hours - last_time <= gap_hours {
            current.push(f);
        } else {
            storms.push(storm_from(&current));
            current = vec![f];
        }
    }
    storms.push(storm_from(&current));
    storms
}

fn storm_from(reports: &[MountFailure]) -> MountStorm {
    let mut nodes: Vec<u32> = reports.iter().map(|r| r.node_id).collect();
    nodes.sort_unstable();
    nodes.dedup();
    MountStorm {
        start_hours: reports.first().expect("non-empty").time_hours,
        end_hours: reports.last().expect("non-empty").time_hours,
        distinct_nodes: nodes.len(),
        raw_reports: reports.len(),
    }
}

/// Classifies an outage as *attributable to the CFS* (I/O hardware or
/// file-system causes) versus outside it (batch system, network). Used by
/// the analyses to separate CFS availability from cluster-level utility.
pub(crate) fn is_cfs_outage(cause: OutageCause) -> bool {
    matches!(cause, OutageCause::IoHardware | OutageCause::FileSystem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outage(cause: OutageCause, start: f64, end: f64) -> OutageRecord {
        OutageRecord { cause, start_hours: start, end_hours: end }
    }

    #[test]
    fn overlapping_same_cause_outages_merge() {
        let raw = vec![
            outage(OutageCause::IoHardware, 10.0, 14.0),
            outage(OutageCause::IoHardware, 13.0, 20.0),
            outage(OutageCause::IoHardware, 30.0, 31.0),
        ];
        let merged = coalesce_outages(&raw, 0.0);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].start_hours, 10.0);
        assert_eq!(merged[0].end_hours, 20.0);
        assert_eq!(merged[1].start_hours, 30.0);
    }

    #[test]
    fn nearby_outages_merge_within_gap() {
        let raw = vec![
            outage(OutageCause::FileSystem, 10.0, 11.0),
            outage(OutageCause::FileSystem, 11.5, 12.0),
        ];
        assert_eq!(coalesce_outages(&raw, 1.0).len(), 1);
        assert_eq!(coalesce_outages(&raw, 0.1).len(), 2);
    }

    #[test]
    fn different_causes_never_merge() {
        let raw = vec![
            outage(OutageCause::IoHardware, 10.0, 14.0),
            outage(OutageCause::Network, 11.0, 12.0),
        ];
        let merged = coalesce_outages(&raw, 10.0);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn coalesce_outages_result_is_time_ordered() {
        let raw = vec![
            outage(OutageCause::Network, 50.0, 51.0),
            outage(OutageCause::IoHardware, 10.0, 14.0),
            outage(OutageCause::FileSystem, 30.0, 30.5),
        ];
        let merged = coalesce_outages(&raw, 0.0);
        let starts: Vec<f64> = merged.iter().map(|o| o.start_hours).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn mount_failures_group_into_storms_with_distinct_nodes() {
        let failures = vec![
            MountFailure { time_hours: 10.00, node_id: 1 },
            MountFailure { time_hours: 10.01, node_id: 2 },
            MountFailure { time_hours: 10.02, node_id: 2 }, // duplicate node
            MountFailure { time_hours: 10.03, node_id: 3 },
            MountFailure { time_hours: 50.00, node_id: 9 },
        ];
        let storms = coalesce_mount_failures(&failures, 1.0);
        assert_eq!(storms.len(), 2);
        assert_eq!(storms[0].distinct_nodes, 3);
        assert_eq!(storms[0].raw_reports, 4);
        assert_eq!(storms[1].distinct_nodes, 1);
        assert!(storms[0].start_hours <= storms[0].end_hours);
    }

    #[test]
    fn storm_chains_extend_while_gaps_stay_small() {
        // Reports every 0.5 h for 5 h: a single storm under a 1-hour gap,
        // ten separate "storms" under a 0.1-hour gap.
        let failures: Vec<MountFailure> =
            (0..10).map(|i| MountFailure { time_hours: i as f64 * 0.5, node_id: i }).collect();
        assert_eq!(coalesce_mount_failures(&failures, 1.0).len(), 1);
        assert_eq!(coalesce_mount_failures(&failures, 0.1).len(), 10);
    }

    #[test]
    fn empty_inputs_give_empty_outputs() {
        assert!(coalesce_outages(&[], 1.0).is_empty());
        assert!(coalesce_mount_failures(&[], 1.0).is_empty());
    }

    #[test]
    fn cfs_outage_classification() {
        assert!(is_cfs_outage(OutageCause::IoHardware));
        assert!(is_cfs_outage(OutageCause::FileSystem));
        assert!(!is_cfs_outage(OutageCause::Network));
        assert!(!is_cfs_outage(OutageCause::BatchSystem));
    }
}
