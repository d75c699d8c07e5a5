//! Online-update replay (paper §5.3, Figure 8, Table 5).
//!
//! The framework is *online* when the time to refresh betweenness after an
//! update stays below the inter-arrival gap to the next update.
//! [`simulate_online`] drives a real [`ClusterEngine`] (worker threads) and
//! measures wall-clock per update, so it is faithful up to the local core
//! count.

use crate::cluster::ClusterEngine;
use ebc_core::shard::Shard;
use ebc_core::state::Update;
use ebc_graph::{EdgeStream, Error};

/// Per-update record of the replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineEvent {
    /// Arrival time (seconds, stream clock).
    pub arrival: f64,
    /// Gap since the previous arrival (the deadline for this update).
    pub gap: f64,
    /// Time spent computing the update (map critical path + reduce).
    pub update_time: f64,
    /// Completion time on the stream clock, accounting for queueing behind
    /// earlier updates.
    pub completion: f64,
}

/// Outcome of an online replay (the quantities of Table 5).
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Per-update records, in stream order.
    pub events: Vec<OnlineEvent>,
    /// Number of updates whose results were not ready before the next
    /// arrival ("% missed" in Table 5 is `missed / events.len()`).
    pub missed: usize,
    /// Mean lateness of missed updates, in seconds ("avg. delay").
    pub avg_delay: f64,
}

impl OnlineReport {
    fn from_events(events: Vec<OnlineEvent>) -> Self {
        let mut missed = 0usize;
        let mut delay_sum = 0.0;
        for i in 0..events.len() {
            let deadline = if i + 1 < events.len() {
                events[i + 1].arrival
            } else {
                // last event: deadline is one mean gap after its arrival
                events[i].arrival + events[i].gap.max(f64::EPSILON)
            };
            if events[i].completion > deadline {
                missed += 1;
                delay_sum += events[i].completion - deadline;
            }
        }
        let avg_delay = if missed > 0 {
            delay_sum / missed as f64
        } else {
            0.0
        };
        OnlineReport {
            events,
            missed,
            avg_delay,
        }
    }

    /// Fraction of updates missed, in percent.
    pub fn pct_missed(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            100.0 * self.missed as f64 / self.events.len() as f64
        }
    }

    /// Mean measured update time in seconds.
    pub fn mean_update_time(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events.iter().map(|e| e.update_time).sum::<f64>() / self.events.len() as f64
    }
}

fn fold_events(arrivals: &[(f64, f64)], update_times: &[f64]) -> Vec<OnlineEvent> {
    let mut events = Vec::with_capacity(arrivals.len());
    let mut clock = 0.0f64;
    for (&(arrival, gap), &ut) in arrivals.iter().zip(update_times) {
        let start = clock.max(arrival);
        let completion = start + ut;
        clock = completion;
        events.push(OnlineEvent {
            arrival,
            gap,
            update_time: ut,
            completion,
        });
    }
    events
}

fn arrivals_of(stream: &EdgeStream) -> Vec<(f64, f64)> {
    let gaps = stream.inter_arrival_times();
    stream
        .events()
        .iter()
        .zip(gaps)
        .map(|(e, g)| (e.time, g))
        .collect()
}

/// Measured replay: apply the stream on a live cluster, recording wall-clock
/// update latencies (map critical path + reduce).
pub fn simulate_online<H: Shard>(
    cluster: &mut ClusterEngine<H>,
    stream: &EdgeStream,
) -> Result<OnlineReport, Error> {
    let arrivals = arrivals_of(stream);
    let mut update_times = Vec::with_capacity(arrivals.len());
    for ev in stream.events() {
        let rep = cluster.apply(Update {
            op: ev.op,
            u: ev.u,
            v: ev.v,
        })?;
        let merge = cluster.reduce()?.wall;
        update_times.push((rep.map_wall + merge).as_secs_f64());
    }
    Ok(OnlineReport::from_events(fold_events(
        &arrivals,
        &update_times,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_events(times_and_durs: &[(f64, f64)]) -> Vec<OnlineEvent> {
        let arrivals: Vec<(f64, f64)> = times_and_durs
            .iter()
            .scan(0.0, |prev, &(t, _)| {
                let gap = t - *prev;
                *prev = t;
                Some((t, gap))
            })
            .collect();
        let durs: Vec<f64> = times_and_durs.iter().map(|&(_, d)| d).collect();
        fold_events(&arrivals, &durs)
    }

    #[test]
    fn all_on_time_when_fast() {
        let report = OnlineReport::from_events(mk_events(&[(1.0, 0.1), (2.0, 0.1), (3.0, 0.1)]));
        assert_eq!(report.missed, 0);
        assert_eq!(report.pct_missed(), 0.0);
        assert_eq!(report.avg_delay, 0.0);
    }

    #[test]
    fn slow_updates_queue_and_miss() {
        // gap is 1s, processing takes 2.5s: every update is late and
        // lateness accumulates through the queue.
        let report =
            OnlineReport::from_events(mk_events(&[(1.0, 2.5), (2.0, 2.5), (3.0, 2.5), (4.0, 2.5)]));
        assert!(report.missed >= 3, "missed = {}", report.missed);
        assert!(report.avg_delay > 1.0);
        // queueing: completion times strictly increase by 2.5 once saturated
        let c: Vec<f64> = report.events.iter().map(|e| e.completion).collect();
        assert!((c[1] - c[0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn report_statistics() {
        let report = OnlineReport::from_events(mk_events(&[(1.0, 0.2), (2.0, 0.4)]));
        assert!((report.mean_update_time() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn measured_mode_runs_end_to_end() {
        use ebc_gen::models::holme_kim_with_order;
        use ebc_gen::streams::replay_growth;
        let (full, order) = holme_kim_with_order(30, 3, 0.3, 4);
        let (boot, tail) = replay_growth(&order, full.n(), 8, 10.0, 0.3, 5);
        let mut cluster = ClusterEngine::new(&boot, 2).unwrap();
        let report = simulate_online(&mut cluster, &tail).unwrap();
        assert_eq!(report.events.len(), 8);
        // tiny graph, 10s gaps: everything is on time
        assert_eq!(report.missed, 0);
    }
}
