//! # uc-thermal — room and node thermal model
//!
//! Reproduces the thermal environment of the study (paper Section III-F):
//!
//! - the machine room is held between 18 C and 26 C year-round;
//! - nodes running only the memory scanner (which does not stress the CPU)
//!   sit at a nominal 30-40 C — the band where the paper sees most errors;
//! - the SoC-12 blade position overheats because of rack airflow ("they tend
//!   to overheat, and to produce heat for other nodes"), pushing those nodes
//!   and, mildly, their neighbours above 60 C until the admins power the
//!   position off;
//! - temperature *telemetry* only begins in April 2015; earlier samples are
//!   `None`, which is why the paper's seven isolated SDCs have no recorded
//!   temperature.
//!
//! The model is deterministic: per-node offsets and slow noise derive from
//! hashes of the node id, so a campaign re-run reproduces every sample.
//! A campaign samples each node through a [`NodeSampler`], which computes
//! the node's offset, noise key and overheating rise once per node and the
//! room's seasonal term once per day, bit for bit the values
//! [`ThermalModel::sample`] gives.

use std::cell::Cell;

use uc_cluster::{NodeId, OVERHEATING_SOC};
use uc_simclock::calendar::CivilDate;
use uc_simclock::rng::mix64;
use uc_simclock::{SimDuration, SimTime};

/// Date at which node temperature logging was enabled (April 2015).
pub fn telemetry_start() -> SimTime {
    CivilDate::new(2015, 4, 1).midnight()
}

/// The thermal model for the whole machine.
#[derive(Clone, Debug)]
pub struct ThermalModel {
    /// Salt for deterministic per-node variation.
    pub salt: u64,
    /// Mean room temperature in C.
    pub room_mean_c: f64,
    /// Half-amplitude of the room's daily cycle in C.
    pub room_daily_amp_c: f64,
    /// Half-amplitude of the room's seasonal drift in C.
    pub room_seasonal_amp_c: f64,
    /// Mean idle-node rise over room temperature (scanner load only).
    pub idle_rise_c: f64,
    /// Extra rise at the overheating SoC position.
    pub overheat_rise_c: f64,
    /// Extra rise for SoCs adjacent to the overheating position.
    pub neighbour_rise_c: f64,
    /// If set, the overheating position is powered off from this time on
    /// (the admins' mitigation), removing the extra heat.
    pub overheat_shutdown: Option<SimTime>,
}

impl ThermalModel {
    /// Paper-calibrated defaults. The overheating SoCs were shut down a few
    /// months into the study (after the early isolated SDCs of Section
    /// III-D, six of which predate temperature logging).
    pub fn paper_default(salt: u64) -> ThermalModel {
        ThermalModel {
            salt,
            room_mean_c: 22.0,
            room_daily_amp_c: 1.5,
            room_seasonal_amp_c: 2.0,
            idle_rise_c: 13.0,
            overheat_rise_c: 32.0,
            neighbour_rise_c: 4.0,
            overheat_shutdown: Some(CivilDate::new(2015, 6, 15).midnight()),
        }
    }

    /// Room temperature at an instant: mean + seasonal + daily components.
    /// Always within the paper's 18-26 C controlled band.
    pub fn room_c(&self, t: SimTime) -> f64 {
        self.room_day_c(t.day_index()) + self.room_daily_c(t)
    }

    /// The room's mean plus its seasonal drift on day `day`.
    fn room_day_c(&self, day: i64) -> f64 {
        let day = day as f64;
        let seasonal =
            self.room_seasonal_amp_c * (2.0 * std::f64::consts::PI * (day - 196.0) / 365.25).cos();
        self.room_mean_c + seasonal
    }

    /// The room's daily cycle at an instant.
    fn room_daily_c(&self, t: SimTime) -> f64 {
        let sod = t.seconds_of_day() as f64 / 86_400.0;
        self.room_daily_amp_c * (2.0 * std::f64::consts::PI * (sod - 0.625)).cos()
    }

    /// Whether the overheating position is still powered (producing heat).
    pub fn overheat_active(&self, t: SimTime) -> bool {
        match self.overheat_shutdown {
            Some(cutoff) => t < cutoff,
            None => true,
        }
    }

    /// Per-node static offset in C (manufacturing/airflow variability),
    /// deterministic in (salt, node), roughly +/-2 C.
    pub fn node_offset_c(&self, node: NodeId) -> f64 {
        let h = mix64(self.salt ^ (u64::from(node.0) << 17) ^ 0xA5A5);
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (u - 0.5) * 4.0
    }

    /// Node temperature in C at an instant, assuming the node is powered
    /// and running the (CPU-light) memory scanner.
    pub fn node_c(&self, node: NodeId, t: SimTime) -> f64 {
        self.node_sampler(node).node_c(t)
    }

    /// What the telemetry reports: `None` before logging was enabled.
    pub fn sample(&self, node: NodeId, t: SimTime) -> Option<f32> {
        self.node_sampler(node).sample(t)
    }

    /// One node's sampler, for taking many samples of that node.
    pub fn node_sampler(&self, node: NodeId) -> NodeSampler<'_> {
        let soc = node.soc();
        let overheat_c = if soc == OVERHEATING_SOC {
            Some(self.overheat_rise_c)
        } else if soc.abs_diff(OVERHEATING_SOC) == 1 {
            Some(self.neighbour_rise_c)
        } else {
            None
        };
        NodeSampler {
            model: self,
            offset_c: self.node_offset_c(node),
            noise_key: self.salt ^ mix64(u64::from(node.0)),
            overheat_c,
            telemetry_start: telemetry_start(),
            room_day: Cell::new(None),
        }
    }
}

/// One node's temperatures under a [`ThermalModel`]. What depends on the
/// node alone (its offset, its noise key, its overheating rise) and the
/// telemetry start are computed once, and the room's seasonal term once
/// per day, however the sample times move. [`ThermalModel::node_c`] and
/// [`ThermalModel::sample`] go through it, so one formula gives every
/// temperature.
#[derive(Clone, Debug)]
pub struct NodeSampler<'a> {
    model: &'a ThermalModel,
    /// The node's static offset, [`ThermalModel::node_offset_c`].
    offset_c: f64,
    /// The node's part of the hourly noise hash.
    noise_key: u64,
    /// Extra rise while the overheating position is powered: the
    /// position's own, or its neighbours'.
    overheat_c: Option<f64>,
    telemetry_start: SimTime,
    /// The last day sampled, and the room's mean plus seasonal drift on it.
    room_day: Cell<Option<(i64, f64)>>,
}

impl NodeSampler<'_> {
    /// Slow per-node thermal noise (+/-1.5 C), varying hour to hour.
    fn noise_c(&self, t: SimTime) -> f64 {
        let hour = t.as_secs().div_euclid(3_600);
        let h = mix64(self.noise_key ^ hour as u64);
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (u - 0.5) * 3.0
    }

    /// The node's temperature in C at an instant: room, idle rise, node
    /// offset and noise, plus the overheating rise while it applies.
    fn node_c(&self, t: SimTime) -> f64 {
        let m = self.model;
        let day = t.day_index();
        let room_day = match self.room_day.get() {
            Some((d, c)) if d == day => c,
            _ => {
                let c = m.room_day_c(day);
                self.room_day.set(Some((day, c)));
                c
            }
        };
        let mut temp =
            room_day + m.room_daily_c(t) + m.idle_rise_c + self.offset_c + self.noise_c(t);
        if let Some(rise) = self.overheat_c {
            if m.overheat_active(t) {
                temp += rise;
            }
        }
        temp
    }

    /// What the telemetry reports: `None` before logging was enabled.
    pub fn sample(&self, t: SimTime) -> Option<f32> {
        if t < self.telemetry_start {
            None
        } else {
            Some(self.node_c(t) as f32)
        }
    }
}

/// One day of hourly room samples — used by tests and the thermal example.
pub fn room_profile(model: &ThermalModel, date: CivilDate) -> Vec<f64> {
    (0..24)
        .map(|h| model.room_c(date.midnight() + SimDuration::from_hours(h)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uc_cluster::{BladeId, NodeId};

    fn model() -> ThermalModel {
        ThermalModel::paper_default(42)
    }

    fn node(blade: u32, soc: u32) -> NodeId {
        NodeId::new(BladeId(blade), soc)
    }

    #[test]
    fn room_stays_in_controlled_band() {
        let m = model();
        for day in 0..420 {
            for h in 0..24 {
                let t = SimTime::from_secs(day * 86_400 + h * 3_600);
                let r = m.room_c(t);
                assert!(
                    (18.0..=26.0).contains(&r),
                    "room {r} C on day {day} hour {h}"
                );
            }
        }
    }

    #[test]
    fn nominal_nodes_sit_in_thirty_to_forty_band() {
        let m = model();
        let mut in_band = 0u32;
        let mut total = 0u32;
        for blade in 0..20 {
            for soc in [0u32, 3, 7, 14] {
                for day in [50i64, 150, 250, 350] {
                    let t = SimTime::from_secs(day * 86_400 + 12 * 3_600);
                    let c = m.node_c(node(blade, soc), t);
                    total += 1;
                    if (30.0..=40.0).contains(&c) {
                        in_band += 1;
                    }
                    assert!((25.0..=48.0).contains(&c), "node temp {c}");
                }
            }
        }
        assert!(
            in_band * 10 >= total * 7,
            "most samples in 30-40 C: {in_band}/{total}"
        );
    }

    #[test]
    fn overheating_position_exceeds_sixty_before_shutdown() {
        let m = model();
        let t = CivilDate::new(2015, 3, 1).midnight() + SimDuration::from_hours(12);
        let hot = m.node_c(node(10, OVERHEATING_SOC), t);
        assert!(hot > 60.0, "overheating SoC at {hot} C");
        let neighbour = m.node_c(node(10, OVERHEATING_SOC - 1), t);
        assert!(
            neighbour > m.node_c(node(10, 2), t),
            "neighbour runs warmer"
        );
        assert!(neighbour < 55.0);
    }

    #[test]
    fn overheating_stops_after_shutdown() {
        let m = model();
        let t = CivilDate::new(2015, 9, 1).midnight() + SimDuration::from_hours(12);
        assert!(!m.overheat_active(t));
        let c = m.node_c(node(10, OVERHEATING_SOC), t);
        assert!(c < 45.0, "position cools once powered off: {c} C");
    }

    #[test]
    fn telemetry_censored_before_april() {
        let m = model();
        let before = CivilDate::new(2015, 3, 31).midnight();
        let after = CivilDate::new(2015, 4, 1).midnight() + SimDuration::from_hours(1);
        assert_eq!(m.sample(node(1, 1), before), None);
        assert!(m.sample(node(1, 1), after).is_some());
    }

    #[test]
    fn samples_are_deterministic() {
        let a = model();
        let b = model();
        let t = CivilDate::new(2015, 7, 1).midnight() + SimDuration::from_hours(9);
        assert_eq!(a.sample(node(5, 5), t), b.sample(node(5, 5), t));
    }

    #[test]
    fn node_offsets_vary_but_bounded() {
        let m = model();
        let offsets: Vec<f64> = (0..200).map(|i| m.node_offset_c(NodeId(i))).collect();
        assert!(offsets.iter().all(|o| o.abs() <= 2.0));
        let distinct = offsets
            .iter()
            .filter(|o| (*o - offsets[0]).abs() > 1e-9)
            .count();
        assert!(distinct > 150, "offsets spread across nodes");
    }

    #[test]
    fn seasonal_effect_visible() {
        let m = model();
        let summer = m.room_c(CivilDate::new(2015, 7, 15).midnight() + SimDuration::from_hours(15));
        let winter = m.room_c(CivilDate::new(2015, 1, 15).midnight() + SimDuration::from_hours(15));
        assert!(summer > winter, "summer room warmer: {summer} vs {winter}");
    }

    #[test]
    fn room_profile_has_24_samples() {
        let p = room_profile(&model(), CivilDate::new(2015, 5, 5));
        assert_eq!(p.len(), 24);
        // Afternoon warmer than pre-dawn.
        assert!(p[15] > p[4]);
    }

    /// The formula as written before the sampler hoisted its node and day
    /// terms out: every term recomputed at every call.
    fn naive_node_c(m: &ThermalModel, node: NodeId, t: SimTime) -> f64 {
        let day = t.day_index() as f64;
        let seasonal =
            m.room_seasonal_amp_c * (2.0 * std::f64::consts::PI * (day - 196.0) / 365.25).cos();
        let sod = t.seconds_of_day() as f64 / 86_400.0;
        let daily = m.room_daily_amp_c * (2.0 * std::f64::consts::PI * (sod - 0.625)).cos();
        let room = m.room_mean_c + seasonal + daily;
        let hour = t.as_secs().div_euclid(3_600);
        let h = mix64(m.salt ^ mix64(u64::from(node.0)) ^ hour as u64);
        let noise = ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5) * 3.0;
        let mut temp = room + m.idle_rise_c + m.node_offset_c(node) + noise;
        if m.overheat_active(t) {
            if node.soc() == OVERHEATING_SOC {
                temp += m.overheat_rise_c;
            } else if node.soc().abs_diff(OVERHEATING_SOC) == 1 {
                temp += m.neighbour_rise_c;
            }
        }
        temp
    }

    /// The overheating SoC, both neighbours and three other positions.
    fn sampled_nodes() -> Vec<NodeId> {
        let mut nodes = Vec::new();
        for blade in [0u32, 10, 62] {
            for soc in [
                OVERHEATING_SOC - 1,
                OVERHEATING_SOC,
                OVERHEATING_SOC + 1,
                0,
                2,
                7,
            ] {
                nodes.push(node(blade, soc));
            }
        }
        nodes
    }

    /// Checks one sampler reused over `times`, in that order, against a
    /// fresh `sample` per call and the naive formula, by bits.
    fn assert_sampler_matches(m: &ThermalModel, nodes: &[NodeId], times: &[SimTime]) {
        for &n in nodes {
            let sampler = m.node_sampler(n);
            for &t in times {
                let got = sampler.sample(t).map(f32::to_bits);
                assert_eq!(got, m.sample(n, t).map(f32::to_bits), "node {n} at {t:?}");
                let naive = (t >= telemetry_start()).then(|| naive_node_c(m, n, t) as f32);
                assert_eq!(got, naive.map(f32::to_bits), "node {n} at {t:?}");
                assert_eq!(
                    sampler.node_c(t).to_bits(),
                    naive_node_c(m, n, t).to_bits(),
                    "node {n} at {t:?}"
                );
            }
        }
    }

    #[test]
    fn node_sampler_matches_sample_bit_for_bit() {
        let m = model();
        let start = telemetry_start();
        let shutdown = m.overheat_shutdown.unwrap();
        let s = |base: SimTime, secs: i64| base + SimDuration::from_secs(secs);
        let times = [
            // Before telemetry, then across its start.
            s(start, -86_400 * 3 - 5),
            s(start, -1),
            start,
            s(start, 1),
            // Across day boundaries, forwards then backwards.
            s(start, 86_400 * 5 - 1),
            s(start, 86_400 * 5),
            s(start, 86_400 * 5 + 3_599),
            s(start, 86_400 * 5 - 1),
            s(start, 86_400 * 2 + 43_200),
            // Either side of the overheating position's shutdown, with a
            // step back over it.
            s(shutdown, -3_600),
            s(shutdown, -1),
            shutdown,
            s(shutdown, 1),
            s(shutdown, -1),
            s(shutdown, 86_400 * 40),
            // Far back before the epoch, and back to the start.
            SimTime::from_secs(-86_400 * 400 - 7),
            start,
        ];
        assert_sampler_matches(&m, &sampled_nodes(), &times);
        // A model with no shutdown keeps the rise on for good.
        let always_hot = ThermalModel {
            overheat_shutdown: None,
            ..model()
        };
        assert_sampler_matches(&always_hot, &sampled_nodes(), &times);
    }

    proptest! {
        #[test]
        fn node_sampler_matches_sample_on_any_walk(
            raw in 0u32..1080,
            times in proptest::collection::vec(-30i64 * 86_400..(425 * 86_400), 1..40),
        ) {
            let times: Vec<SimTime> = times.into_iter().map(SimTime::from_secs).collect();
            assert_sampler_matches(&model(), &[NodeId(raw)], &times);
        }

        #[test]
        fn node_temps_always_physical(raw in 0u32..1080, secs in 0i64..(425 * 86_400)) {
            let m = model();
            let c = m.node_c(NodeId(raw), SimTime::from_secs(secs));
            prop_assert!((15.0..=95.0).contains(&c), "temp {c}");
        }

        #[test]
        fn telemetry_censor_is_exact(raw in 0u32..1080, secs in 0i64..(425 * 86_400)) {
            let m = model();
            let t = SimTime::from_secs(secs);
            let sample = m.sample(NodeId(raw), t);
            prop_assert_eq!(sample.is_none(), t < telemetry_start());
        }

        #[test]
        fn overheating_position_is_the_hottest_before_shutdown(blade in 0u32..63, secs in 0i64..(120 * 86_400)) {
            let m = model();
            let t = SimTime::from_secs(secs);
            let hot = m.node_c(NodeId::new(BladeId(blade), OVERHEATING_SOC), t);
            // Any non-adjacent SoC on the same blade runs well cooler.
            let cool = m.node_c(NodeId::new(BladeId(blade), 2), t);
            prop_assert!(hot > cool + 15.0, "hot {hot} vs cool {cool}");
        }
    }
}
