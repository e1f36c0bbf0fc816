//! Cosmic-ray strike processes.
//!
//! Two components, both driven by the atmospheric-neutron flux model:
//!
//! - a **background** single-cell process, near-homogeneous (the single-bit
//!   rate in the paper shows no diurnal structure, Fig. 5), responsible for
//!   the "<30 errors over all other nodes" background of Fig. 12;
//! - a **multi-lane / shower** process whose rate is *fully* modulated by
//!   the solar elevation, producing the noon-peaked bell of Fig. 6. Events
//!   corrupt a run of adjacent bit lanes in one word (-> per-word multi-bit
//!   errors), sometimes accompanied by single-cell hits in physically
//!   adjacent rows (-> the paper's double+single simultaneity cases), and
//!   occasionally pure multi-word showers of single-bit hits.
//!
//! The multi-lane rate is normalized by the flux's mean over a
//! representative day, 1,440 solar-position samples; each thread computes
//! it once per flux and reuses it for every node it simulates.

use std::cell::Cell;

use uc_cluster::NodeId;
use uc_dram::{Geometry, WordAddr};
use uc_simclock::dist::{thinned_poisson_times, weighted_index};
use uc_simclock::rng::StreamRng;
use uc_simclock::{NeutronFlux, SimTime};

use crate::scenario::ScanWindow;
use crate::types::{Strike, StrikeKind, TransientEvent};

/// Configuration for the background single-cell process.
#[derive(Clone, Debug)]
pub struct BackgroundConfig {
    /// Strikes per monitored node-hour (before detection losses).
    pub rate_per_hour: f64,
    /// Probability a background event is a small multi-word shower of
    /// single-cell hits instead of one cell.
    pub shower_prob: f64,
    /// Maximum words in a background shower.
    pub shower_max_words: u32,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            // ~25 detected background errors over ~4.2M monitored node-hours
            // at ~50% detection efficiency.
            rate_per_hour: 1.3e-5,
            shower_prob: 0.08,
            shower_max_words: 6,
        }
    }
}

/// Configuration for the solar-modulated multi-bit process.
#[derive(Clone, Debug)]
pub struct MultiBitConfig {
    /// Base rate per monitored node-hour for *ordinary* nodes, scaled by
    /// the (normalized) neutron-flux factor.
    pub rate_per_hour: f64,
    /// Extra rate for the designated hot node (the paper's Fig. 11 shows
    /// multi-bit bursts in November riding on node 02-04's degradation).
    pub hot_node_rate_per_hour: f64,
    /// The hot node, if any.
    pub hot_node: Option<NodeId>,
    /// Window during which the hot node's extra rate applies.
    pub hot_window: Option<(SimTime, SimTime)>,
    /// Relative weights of the lane-span distribution, index 0 => span 2.
    /// Defaults follow Table I: spans {2: 76, 3: 2} (the 4+ bit errors are
    /// the isolated SDCs, placed by `crate::isolated`).
    pub span_weights: Vec<f64>,
    /// Probability a multi-lane strike is accompanied by 1..=3 single-cell
    /// hits in adjacent rows (the 44-of-76 coincidence statistic).
    pub companion_prob: f64,
    /// Probability the companion itself is a second double strike (the
    /// paper saw exactly one double+double event).
    pub double_double_prob: f64,
    /// Probability a strike lands on the node's *characteristic* weak lane
    /// pair instead of a random one. The paper's Table I shows recurring
    /// multi-bit patterns (one double-bit pattern 36 times), i.e. the same
    /// marginal lanes keep getting hit on a given device.
    pub repeat_lane_prob: f64,
}

impl Default for MultiBitConfig {
    fn default() -> Self {
        MultiBitConfig {
            rate_per_hour: 1.0e-5,
            hot_node_rate_per_hour: 0.055,
            hot_node: None,
            hot_window: None,
            span_weights: vec![76.0, 2.0],
            companion_prob: 0.58,
            double_double_prob: 0.013,
            repeat_lane_prob: 0.55,
        }
    }
}

/// The normalizer of the modulated rate: `flux`'s mean factor over a
/// representative day (the equinox, day 80). It takes 1,440 solar-position
/// samples, so each thread computes it on first use and keeps the last
/// value, keyed by the bits of every field of the flux: a caller that
/// swaps the flux gets a fresh value, never a stale one.
fn mean_factor(flux: &NeutronFlux) -> f64 {
    thread_local! {
        static LAST: Cell<Option<([u64; 5], f64)>> = const { Cell::new(None) };
    }
    let site = &flux.site;
    let key = [
        site.latitude_deg.to_bits(),
        site.longitude_deg.to_bits(),
        site.altitude_m.to_bits(),
        site.utc_offset_h.to_bits(),
        flux.solar_gain.to_bits(),
    ];
    LAST.with(|last| match last.get() {
        Some((k, mean)) if k == key => mean,
        _ => {
            let mean = flux.mean_factor_over_day(80);
            last.set(Some((key, mean)));
            mean
        }
    })
}

/// Draw event times for a rate that is `base * flux.factor(t) / mean_factor`
/// inside the scan windows. Normalizing by the mean factor keeps `base` an
/// interpretable events-per-hour rate while preserving the diurnal shape.
fn solar_modulated_times(
    rng: &mut StreamRng,
    windows: &[ScanWindow],
    flux: &NeutronFlux,
    base_per_hour: f64,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    if base_per_hour <= 0.0 {
        return out;
    }
    let mean = mean_factor(flux).max(1e-9);
    let max = flux.max_factor() / mean;
    for w in windows {
        let rate = base_per_hour / 3_600.0;
        let times = thinned_poisson_times(
            rng,
            w.start.as_secs() as f64,
            w.end.as_secs() as f64,
            rate * max,
            |t| rate * flux.factor(SimTime::from_secs(t as i64)) / mean,
        );
        out.extend(times.into_iter().map(|t| SimTime::from_secs(t as i64)));
    }
    out
}

/// Uniform (non-modulated) event times inside scan windows.
fn uniform_times(rng: &mut StreamRng, windows: &[ScanWindow], rate_per_hour: f64) -> Vec<SimTime> {
    let mut out = Vec::new();
    let rate = rate_per_hour / 3_600.0;
    for w in windows {
        let times = thinned_poisson_times(
            rng,
            w.start.as_secs() as f64,
            w.end.as_secs() as f64,
            rate,
            |_| rate,
        );
        out.extend(times.into_iter().map(|t| SimTime::from_secs(t as i64)));
    }
    out
}

fn random_addr(rng: &mut StreamRng, scan_words: u64) -> WordAddr {
    WordAddr(rng.below(scan_words.max(1)))
}

/// Generate background events for one node.
pub fn background_events(
    cfg: &BackgroundConfig,
    node: NodeId,
    windows: &[ScanWindow],
    scan_words: u64,
    rng: &mut StreamRng,
) -> Vec<TransientEvent> {
    let geometry = Geometry::NODE_4GB;
    uniform_times(rng, windows, cfg.rate_per_hour)
        .into_iter()
        .map(|time| {
            let addr = random_addr(rng, scan_words);
            let strikes = if rng.chance(cfg.shower_prob) {
                let words = 2 + rng.below(u64::from(cfg.shower_max_words.max(3) - 1)) as u32;
                shower_strikes(rng, geometry, addr, words, scan_words)
            } else {
                vec![Strike {
                    addr,
                    kind: StrikeKind::Discharge {
                        start_lane: rng.below(32) as u32,
                        span: 1,
                    },
                }]
            };
            TransientEvent {
                time,
                node,
                strikes,
            }
        })
        .collect()
}

/// Single-cell hits over `words` adjacent rows (same bank/column area) —
/// physically clustered, scattered in the scanner's address space.
fn shower_strikes(
    rng: &mut StreamRng,
    geometry: Geometry,
    origin: WordAddr,
    words: u32,
    scan_words: u64,
) -> Vec<Strike> {
    geometry
        .col_neighbours(origin, words)
        .into_iter()
        .map(|a| Strike {
            // Keep every strike inside the scanned region.
            addr: WordAddr(a.0 % scan_words.max(1)),
            kind: StrikeKind::Discharge {
                start_lane: rng.below(32) as u32,
                span: 1,
            },
        })
        .collect()
}

/// Generate solar-modulated multi-bit events for one node.
pub fn multibit_events(
    cfg: &MultiBitConfig,
    node: NodeId,
    windows: &[ScanWindow],
    scan_words: u64,
    flux: &NeutronFlux,
    rng: &mut StreamRng,
) -> Vec<TransientEvent> {
    let geometry = Geometry::NODE_4GB;
    let mut rate = cfg.rate_per_hour;
    let mut hot_windows: Vec<ScanWindow> = Vec::new();
    if cfg.hot_node == Some(node) {
        if let Some((lo, hi)) = cfg.hot_window {
            hot_windows = windows
                .iter()
                .filter(|w| w.end > lo && w.start < hi)
                .map(|w| ScanWindow {
                    start: w.start.clamp(lo, hi),
                    end: w.end.clamp(lo, hi),
                    ..*w
                })
                .collect();
        } else {
            rate += cfg.hot_node_rate_per_hour;
        }
    }

    let mut times = solar_modulated_times(rng, windows, flux, rate);
    if !hot_windows.is_empty() {
        times.extend(solar_modulated_times(
            rng,
            &hot_windows,
            flux,
            cfg.hot_node_rate_per_hour,
        ));
        times.sort_unstable();
    }

    // The node's characteristic weak lane pair, biased toward the low
    // half-word: the paper notes "the majority of the multiple bit
    // corruptions occur in the least significant bits of the word".
    let characteristic_lane = (uc_simclock::rng::mix64(u64::from(node.0) ^ 0x17AD) % 14) as u32;

    times
        .into_iter()
        .map(|time| {
            let addr = random_addr(rng, scan_words);
            let span = 2 + weighted_index(rng, &cfg.span_weights) as u32;
            let start_lane = if rng.chance(cfg.repeat_lane_prob) {
                characteristic_lane
            } else {
                rng.below(31) as u32
            };
            let mut strikes = vec![Strike {
                addr,
                kind: StrikeKind::Discharge { start_lane, span },
            }];
            if rng.chance(cfg.double_double_prob) {
                // A second double strike in an adjacent row.
                let other = geometry.col_neighbours(addr, 2)[1];
                strikes.push(Strike {
                    addr: WordAddr(other.0 % scan_words.max(1)),
                    kind: StrikeKind::Discharge {
                        start_lane: rng.below(31) as u32,
                        span: 2,
                    },
                });
            } else if rng.chance(cfg.companion_prob) {
                // 1..=3 single-cell companions in adjacent rows.
                let n = 1 + rng.below(3) as u32;
                for a in geometry.col_neighbours(addr, n + 1).into_iter().skip(1) {
                    strikes.push(Strike {
                        addr: WordAddr(a.0 % scan_words.max(1)),
                        kind: StrikeKind::Discharge {
                            start_lane: rng.below(32) as u32,
                            span: 1,
                        },
                    });
                }
            }
            TransientEvent {
                time,
                node,
                strikes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_simclock::solar::BARCELONA;
    use uc_simclock::SimDuration;

    fn windows_days(n: i64) -> Vec<ScanWindow> {
        // One 12h window per day, alternating day/night halves to cover all
        // hours over time.
        (0..n)
            .map(|d| {
                let start = SimTime::from_secs(d * 86_400 + (d % 2) * 43_200);
                ScanWindow {
                    start,
                    end: start + SimDuration::from_hours(12),
                    alloc_words: (3 << 30) / 4,
                }
            })
            .collect()
    }

    #[test]
    fn background_rate_roughly_matches() {
        let cfg = BackgroundConfig {
            rate_per_hour: 0.01,
            ..BackgroundConfig::default()
        };
        let mut rng = StreamRng::from_seed(1);
        let w = windows_days(300);
        let hours: f64 = w.iter().map(|w| (w.end - w.start).as_hours_f64()).sum();
        let events = background_events(&cfg, NodeId(0), &w, (3 << 30) / 4, &mut rng);
        let rate = events.len() as f64 / hours;
        assert!((rate - 0.01).abs() < 0.003, "rate {rate}");
        assert!(events.windows(2).all(|p| p[0].time <= p[1].time));
    }

    #[test]
    fn background_mostly_single_cell() {
        let cfg = BackgroundConfig {
            rate_per_hour: 0.05,
            ..BackgroundConfig::default()
        };
        let mut rng = StreamRng::from_seed(2);
        let events = background_events(&cfg, NodeId(0), &windows_days(200), 1 << 28, &mut rng);
        let single = events.iter().filter(|e| e.strikes.len() == 1).count();
        assert!(single as f64 > events.len() as f64 * 0.85);
        for e in &events {
            for s in &e.strikes {
                assert!(s.addr.0 < 1 << 28, "strike inside scanned region");
                assert_eq!(s.kind.footprint_bits(), 1);
            }
        }
    }

    #[test]
    fn multibit_spans_follow_weights() {
        let cfg = MultiBitConfig {
            rate_per_hour: 0.05,
            companion_prob: 0.0,
            double_double_prob: 0.0,
            ..MultiBitConfig::default()
        };
        let flux = NeutronFlux::new(BARCELONA);
        let mut rng = StreamRng::from_seed(3);
        let events = multibit_events(
            &cfg,
            NodeId(1),
            &windows_days(394),
            1 << 28,
            &flux,
            &mut rng,
        );
        assert!(!events.is_empty());
        let doubles = events
            .iter()
            .filter(|e| matches!(e.strikes[0].kind, StrikeKind::Discharge { span: 2, .. }))
            .count();
        // 76:2 weighting => the overwhelming majority are span-2.
        assert!(doubles as f64 > events.len() as f64 * 0.9);
    }

    #[test]
    fn multibit_is_diurnally_modulated() {
        let cfg = MultiBitConfig {
            rate_per_hour: 0.2,
            companion_prob: 0.0,
            ..MultiBitConfig::default()
        };
        let flux = NeutronFlux::new(BARCELONA);
        let mut rng = StreamRng::from_seed(4);
        let events = multibit_events(
            &cfg,
            NodeId(1),
            &windows_days(394),
            1 << 28,
            &flux,
            &mut rng,
        );
        let day = events
            .iter()
            .filter(|e| (7..18).contains(&e.time.datetime().wall_hour()))
            .count();
        let night = events.len() - day;
        assert!(
            day as f64 > night as f64 * 1.4,
            "day {day} vs night {night} (paper: ~2x)"
        );
    }

    #[test]
    fn companions_share_the_timestamp() {
        let cfg = MultiBitConfig {
            rate_per_hour: 0.1,
            companion_prob: 1.0,
            double_double_prob: 0.0,
            ..MultiBitConfig::default()
        };
        let flux = NeutronFlux::new(BARCELONA);
        let mut rng = StreamRng::from_seed(5);
        let events = multibit_events(
            &cfg,
            NodeId(1),
            &windows_days(100),
            1 << 28,
            &flux,
            &mut rng,
        );
        assert!(!events.is_empty());
        for e in &events {
            assert!(e.strikes.len() >= 2, "companion present");
            let addrs: std::collections::HashSet<u64> =
                e.strikes.iter().map(|s| s.addr.0).collect();
            assert_eq!(addrs.len(), e.strikes.len(), "distinct words");
        }
    }

    #[test]
    fn hot_node_gets_extra_events_in_window() {
        let hot = NodeId(7);
        let lo = SimTime::from_secs(50 * 86_400);
        let hi = SimTime::from_secs(150 * 86_400);
        let cfg = MultiBitConfig {
            rate_per_hour: 0.0005,
            hot_node: Some(hot),
            hot_node_rate_per_hour: 0.05,
            hot_window: Some((lo, hi)),
            ..MultiBitConfig::default()
        };
        let flux = NeutronFlux::new(BARCELONA);
        let mut rng_hot = StreamRng::from_seed(6);
        let mut rng_cold = StreamRng::from_seed(6);
        let w = windows_days(394);
        let hot_events = multibit_events(&cfg, hot, &w, 1 << 28, &flux, &mut rng_hot);
        let cold_events = multibit_events(&cfg, NodeId(8), &w, 1 << 28, &flux, &mut rng_cold);
        assert!(hot_events.len() > cold_events.len() * 5 + 5);
        let inside = hot_events
            .iter()
            .filter(|e| e.time >= lo && e.time < hi)
            .count();
        assert!(inside as f64 > hot_events.len() as f64 * 0.8);
    }

    #[test]
    fn mean_factor_is_memoized_bit_for_bit_and_follows_a_swapped_flux() {
        let flux = NeutronFlux::new(BARCELONA);
        let want = flux.mean_factor_over_day(80).to_bits();
        assert_eq!(mean_factor(&flux).to_bits(), want);
        assert_eq!(mean_factor(&flux).to_bits(), want, "memoized value");
        let flat = NeutronFlux::with_gain(flux.site, 0.0);
        let flat_want = flat.mean_factor_over_day(80).to_bits();
        assert_ne!(flat_want, want);
        assert_eq!(mean_factor(&flat).to_bits(), flat_want, "after the swap");
        assert_eq!(mean_factor(&flux).to_bits(), want, "after swapping back");

        // Events drawn under the swapped flux on this thread equal those
        // drawn on a fresh thread, which has nothing memoized.
        let cfg = MultiBitConfig {
            rate_per_hour: 0.05,
            ..MultiBitConfig::default()
        };
        let events = move |flux: NeutronFlux| {
            let mut rng = StreamRng::from_seed(8);
            multibit_events(&cfg, NodeId(1), &windows_days(60), 1 << 28, &flux, &mut rng)
        };
        let here = (events.clone())(flux);
        let swapped = (events.clone())(flat);
        assert_ne!(here, swapped);
        let fresh = std::thread::spawn(move || events(flat)).join().unwrap();
        assert_eq!(swapped, fresh);
    }

    #[test]
    fn zero_rate_no_events() {
        let cfg = BackgroundConfig {
            rate_per_hour: 0.0,
            ..BackgroundConfig::default()
        };
        let mut rng = StreamRng::from_seed(9);
        assert!(
            background_events(&cfg, NodeId(0), &windows_days(10), 1 << 20, &mut rng).is_empty()
        );
    }
}
