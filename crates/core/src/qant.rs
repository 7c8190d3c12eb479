//! The QA-NT algorithm (§3.3) — per-node server-side state machine.
//!
//! Direct transcription of the paper's pseudo-code:
//!
//! ```text
//! 1  Repeat for ever
//! 2    Given the current prices p⃗, solve (4). This calculates the
//!      optimal supply vector s⃗ᵢ of the node.
//! 3    While a time period τ has not elapsed do
//! 4      If a client asks to evaluate qₖ and s_ik > 0 then
//! 5        Offer to evaluate the query.
//! 6        If offer is accepted set s_ik = s_ik − 1.
//! 7      Else
//! 8        Do not offer to evaluate query qₖ.
//! 9        Set pₖ = pₖ + λpₖ.
//! 10     End If
//! 11   End while
//! 12   For each k s.t. s_ik > 0 do
//! 13     Set pₖ = pₖ − s_ik λ pₖ
//! 14   End For
//! 15 End Repeat
//! ```
//!
//! plus the §5.1 *price-threshold* refinement: a node "will properly track
//! query prices but will only use them to calculate the node's query supply
//! vectors if they are above a specific threshold" — below the threshold
//! the node behaves like an always-offer server (the market is a pure
//! overload-control mechanism).

use qa_economics::{
    DensityOrderCache, NonTatonnementPricer, PriceVector, PricerConfig, QuantityVector,
};
use qa_simnet::telemetry::{SpanTimer, Telemetry, TelemetryEvent};
use qa_simnet::{DetRng, SimDuration};
use qa_workload::ClassId;

/// The span sites of a [`QantNode`], resolved against one telemetry
/// handle: `span.qant.supply_solve_us` (the eq.-4 solve in
/// `begin_period_with_budget`) and `span.qant.price_update_us`
/// (`end_period`). A federation resolves them once and hands every node
/// a clone, so building a large federation does no per-node registry
/// lookups.
#[derive(Debug, Clone)]
pub struct QantSpans {
    supply_solve: SpanTimer,
    price_update: SpanTimer,
}

impl QantSpans {
    /// Resolves both spans on `telemetry` (inert when disabled).
    pub fn resolve(telemetry: &Telemetry) -> QantSpans {
        QantSpans {
            supply_solve: telemetry.span_timer("qant.supply_solve"),
            price_update: telemetry.span_timer("qant.price_update"),
        }
    }
}

/// QA-NT tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QantConfig {
    /// Price dynamics (λ, floor, ceiling, initial).
    pub pricer: PricerConfig,
    /// Length of the time period τ (paper default: 500 ms).
    pub period: SimDuration,
    /// Optional §5.1 threshold: when `Some(t)` and every private price is
    /// ≤ `t × its initial value`, the node offers unconditionally (supply
    /// restriction off). Measured relative to the node's own initial
    /// prices so that per-node jitter does not count as market stress.
    pub price_threshold: Option<f64>,
    /// Log-space half-width of per-node initial price jitter (see
    /// [`QantNode::with_jitter`]); 0 = no jitter.
    pub initial_price_jitter: f64,
    /// Renormalize private prices (geometric mean → 1) at every period
    /// end. Scale-invariant (only relative prices drive supply), it keeps
    /// long overloads from saturating the clamps and measurably improves
    /// near-capacity behaviour. **Do not combine with `price_threshold`**:
    /// the recentring lets decayed idle classes drag the mean down and
    /// catapult active classes across the threshold — threshold
    /// deployments should set this to `false`.
    pub renormalize_prices: bool,
}

impl Default for QantConfig {
    fn default() -> Self {
        QantConfig {
            pricer: PricerConfig::default(),
            period: SimDuration::from_millis(500),
            price_threshold: None,
            initial_price_jitter: 1.5,
            renormalize_prices: true,
        }
    }
}

/// Per-node QA-NT state: private prices + current-period supply vector.
#[derive(Debug, Clone)]
pub struct QantNode {
    config: QantConfig,
    pricer: NonTatonnementPricer,
    /// Remaining supply for the current period (`None` before the first
    /// `begin_period`).
    supply: Option<QuantityVector>,
    /// Initial prices (post-jitter), the baseline for the §5.1 threshold.
    initial_prices: Vec<f64>,
    /// Error-diffusion carry: the fractional part of the relaxed eq.-4
    /// solution rolls into the next period, so a class whose equilibrium
    /// amount is e.g. 0.5/period (execution time longer than `T`) is
    /// supplied every other period instead of never. This is the integer
    /// rounding the paper discusses in §5.1.
    carry: Vec<f64>,
    /// The node's per-class execution times used to build the supply set
    /// (refreshed each period — estimates may improve over time). Owned
    /// buffer, refilled in place so steady-state periods allocate nothing.
    unit_costs_ms: Vec<Option<f64>>,
    /// Memoized price-density ordering for the supply solve; re-sorted
    /// only when prices or unit costs actually changed since last period.
    order_cache: DensityOrderCache,
    /// Retired supply buffer, recycled by the next `begin_period` so the
    /// steady-state period cycle performs no quantity-vector allocations.
    spare: Option<QuantityVector>,
    /// Market-event sink (disabled by default: one branch per emit site).
    telemetry: Telemetry,
    /// Span timers, resolved by `set_telemetry`.
    spans: QantSpans,
}

impl QantNode {
    /// A node over `k` query classes with uniform initial prices.
    pub fn new(k: usize, config: QantConfig) -> QantNode {
        QantNode {
            pricer: NonTatonnementPricer::new(k, config.pricer),
            initial_prices: vec![config.pricer.initial_price; k],
            config,
            supply: None,
            carry: vec![0.0; k],
            unit_costs_ms: vec![None; k],
            order_cache: DensityOrderCache::new(),
            spare: None,
            telemetry: Telemetry::disabled(),
            spans: QantSpans::resolve(&Telemetry::disabled()),
        }
    }

    /// A node whose initial prices are jittered per class by
    /// `exp(U(-σ, σ))` with `σ = config.initial_price_jitter`.
    ///
    /// Under the multiplicative non-tâtonnement dynamics, log-price offsets
    /// between nodes never decay, so this one-time jitter permanently
    /// staggers the price ratios at which otherwise-identical nodes switch
    /// their supply between classes — the population splits into a stable
    /// mix of specializations instead of flip-flopping in lockstep.
    pub fn with_jitter(k: usize, config: QantConfig, rng: &mut DetRng) -> QantNode {
        let sigma = config.initial_price_jitter;
        assert!(sigma >= 0.0 && sigma.is_finite());
        let prices = PriceVector::from_prices(
            (0..k)
                .map(|_| {
                    let factor = if sigma > 0.0 {
                        rng.float_in(-sigma, sigma).exp()
                    } else {
                        1.0
                    };
                    (config.pricer.initial_price * factor)
                        .clamp(config.pricer.price_floor, config.pricer.price_ceiling)
                })
                .collect(),
        );
        let initial_prices = prices.as_slice().to_vec();
        QantNode {
            pricer: NonTatonnementPricer::with_prices(prices, config.pricer),
            initial_prices,
            config,
            supply: None,
            carry: vec![0.0; k],
            unit_costs_ms: vec![None; k],
            order_cache: DensityOrderCache::new(),
            spare: None,
            telemetry: Telemetry::disabled(),
            spans: QantSpans::resolve(&Telemetry::disabled()),
        }
    }

    /// Installs a telemetry handle (label it with this node's id via
    /// [`Telemetry::with_label`]); supply solves, request rejections and
    /// the pricer's adjustments emit through it. Install *before* the
    /// first `begin_period` to capture the initial supply solve.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        let spans = QantSpans::resolve(&telemetry);
        self.set_telemetry_with_spans(telemetry, &spans);
    }

    /// [`Self::set_telemetry`] with span timers already resolved on the
    /// same handle (see [`QantSpans`]).
    pub fn set_telemetry_with_spans(&mut self, telemetry: Telemetry, spans: &QantSpans) {
        self.pricer.set_telemetry(telemetry.clone());
        self.spans = spans.clone();
        self.telemetry = telemetry;
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.pricer.num_classes()
    }

    /// The configuration.
    pub fn config(&self) -> &QantConfig {
        &self.config
    }

    /// The private prices (never sent over the network; exposed for
    /// diagnostics and tests only).
    pub fn prices(&self) -> &qa_economics::PriceVector {
        self.pricer.prices()
    }

    /// Batched log-price read (see
    /// [`NonTatonnementPricer::ln_prices_into`][qa_economics::NonTatonnementPricer::ln_prices_into]):
    /// one call per node fills the per-class signal row the sharded
    /// engine's period reports aggregate.
    pub fn ln_prices_into(&self, out: &mut [f64]) {
        self.pricer.ln_prices_into(out);
    }

    /// Remaining supply for the current period.
    pub fn supply(&self) -> Option<&QuantityVector> {
        self.supply.as_ref()
    }

    /// Step 2: start a period. `unit_costs_ms[k]` is this node's estimated
    /// execution time for class `k` in milliseconds (`None` = cannot run);
    /// `demand_caps` optionally bounds per-class supply by observed demand.
    /// The costs are copied into an internal buffer, so the per-period hot
    /// path never clones the caller's vector.
    pub fn begin_period(
        &mut self,
        unit_costs_ms: &[Option<f64>],
        demand_caps: Option<&QuantityVector>,
    ) {
        let budget = self.config.period.as_millis_f64();
        self.begin_period_with_budget(unit_costs_ms, demand_caps, budget);
    }

    /// [`Self::begin_period`] with an explicit capacity budget in
    /// milliseconds.
    ///
    /// The supply set "depends on [the node's] available hardware
    /// resources" (§2.2): an idle node can deliver up to two periods of
    /// work within the coming period-and-backlog window, a backlogged one
    /// proportionally less. Drivers pass `2T − current_backlog` so node
    /// queues stay bounded by `2T` while idle capacity is never refused —
    /// the work-conserving form of QA-NT admission control.
    pub fn begin_period_with_budget(
        &mut self,
        unit_costs_ms: &[Option<f64>],
        demand_caps: Option<&QuantityVector>,
        budget_ms: f64,
    ) {
        assert_eq!(unit_costs_ms.len(), self.num_classes());
        assert!(budget_ms.is_finite() && budget_ms >= 0.0);
        let _span = self.spans.supply_solve.start();
        self.unit_costs_ms.clear();
        self.unit_costs_ms.extend_from_slice(unit_costs_ms);
        let period_ms = budget_ms;

        // Integer-greedy fill by price density, with two refinements over
        // the plain knapsack:
        //
        // * capacity left after the whole units of a denser class cascades
        //   to the next class — the paper's §3.2 example where a node
        //   supplies (1 q1, 1 q2) within one 500 ms period;
        // * the fractional remainder of each class rolls over to the next
        //   period (error diffusion), so a class whose equilibrium amount
        //   is e.g. 0.5/period (execution longer than `T`) is supplied
        //   every other period rather than never — the integer-rounding
        //   effect the paper analyses in §5.1.
        //
        // The density ordering is memoized: quiet periods (no rejection,
        // no leftover, no renormalization shift) reuse last period's sort.
        let k_classes = self.num_classes();
        let prices = self.pricer.prices();
        let order = self.order_cache.order(prices, &self.unit_costs_ms);
        let mut supply = match self.spare.take() {
            Some(mut s) if s.num_classes() == k_classes => {
                s.reset_zero();
                s
            }
            _ => QuantityVector::zeros(k_classes),
        };
        let mut remaining = period_ms;
        for &k in order {
            let t = self.unit_costs_ms[k].expect("filtered");
            // Fractional allotment this period plus the rolled-over carry.
            let alloc = remaining / t + self.carry[k];
            let mut units = alloc.floor().max(0.0) as u64;
            if let Some(caps) = demand_caps {
                units = units.min(caps.get(k));
            }
            supply.set(k, units);
            // Carry keeps the unreleased fraction, clamped to < 1 so a
            // demand-capped class cannot hoard unbounded future supply.
            self.carry[k] = (alloc - units as f64).clamp(0.0, 0.999_999);
            remaining = (remaining - units as f64 * t).max(0.0);
        }
        let telemetry = &self.telemetry;
        telemetry.emit(|| TelemetryEvent::SupplyComputed {
            node: telemetry.label(),
            budget_ms,
            supply: supply.as_slice().to_vec(),
        });
        self.supply = Some(supply);
    }

    /// `true` when the §5.1 threshold says the market is quiet and supply
    /// restriction should be bypassed: no price has inflated past
    /// `threshold ×` its initial value.
    fn threshold_bypass(&self) -> bool {
        match self.config.price_threshold {
            Some(t) => !self
                .pricer
                .prices()
                .iter()
                .any(|(k, p)| p > t * self.initial_prices[k]),
            None => false,
        }
    }

    /// Steps 4–10: a request for class `k` arrived. Returns `true` when
    /// the node offers. A refusal raises the private price (step 9).
    ///
    /// In the §5.1 threshold mode the node "properly track[s] query
    /// prices" regardless: supply exhaustion still raises the price even
    /// while the node keeps offering — that is how a quiet market learns
    /// it is becoming overloaded and engages the restriction.
    pub fn on_request(&mut self, class: ClassId) -> bool {
        let k = class.index();
        let can_run = self.unit_costs_ms.get(k).copied().flatten().is_some();
        if !can_run {
            // No data for this class: not a market event, no price change.
            return false;
        }
        let available = self.supply.as_ref().is_some_and(|s| s.get(k) > 0);
        if !available {
            self.pricer.on_rejection(k);
        }
        let offered = available || self.threshold_bypass();
        if !offered {
            let telemetry = &self.telemetry;
            telemetry.emit(|| TelemetryEvent::RequestRejected {
                node: telemetry.label(),
                class: k as u32,
            });
        }
        offered
    }

    /// Applies the price side effects of `count` class-`class` requests
    /// that this node refused, without the per-request [`Self::on_request`]
    /// round-trips. Exactly the rejection arm of `on_request`, batched:
    /// the stepwise price rises are bit-identical to `count` eager calls.
    ///
    /// The caller owns the equivalence argument: it may only defer
    /// refusals it has *proven* would each return `false` from
    /// `on_request` (supply exhausted, threshold bypass already off —
    /// prices are non-decreasing within a period, so a full refusal stays
    /// a full refusal), and only while no event sink is installed (the
    /// eager path emits a `RequestRejected` event per refusal).
    pub fn on_rejections(&mut self, class: ClassId, count: u64) {
        let k = class.index();
        if count == 0 || self.unit_costs_ms.get(k).copied().flatten().is_none() {
            // Not capable of the class: eager `on_request` would not have
            // been a market event either.
            return;
        }
        self.pricer.on_rejections(k, count);
    }

    /// Batched [`Self::on_rejections`] across a node population:
    /// `counts[i]` refusals of `class` are charged to `nodes[i]`.
    /// Result-identical to the per-node calls, but the independent
    /// per-node price chains run interleaved (see
    /// [`NonTatonnementPricer::on_rejections_batch`]), which is what
    /// makes boundary replay of a period's refusal storm cheap. Nodes
    /// that are absent, uncharged, incapable of the class, or recording
    /// events take the exact per-node path instead.
    pub fn apply_rejections_batch(nodes: &mut [Option<QantNode>], class: ClassId, counts: &[u64]) {
        assert_eq!(nodes.len(), counts.len());
        let k = class.index();
        // Sparse rows (a handful of charged nodes, as in many-class
        // workloads) don't repay the lane setup: charge them directly.
        if counts.iter().filter(|&&d| d > 0).count() < 4 {
            for (slot, &d) in nodes.iter_mut().zip(counts) {
                if d > 0 {
                    if let Some(node) = slot {
                        node.on_rejections(class, d);
                    }
                }
            }
            return;
        }
        let mut lanes: Vec<&mut NonTatonnementPricer> = Vec::with_capacity(nodes.len());
        let mut lane_counts: Vec<u64> = Vec::with_capacity(nodes.len());
        for (slot, &d) in nodes.iter_mut().zip(counts) {
            let Some(node) = slot else { continue };
            if d == 0 || node.unit_costs_ms.get(k).copied().flatten().is_none() {
                continue;
            }
            if node.telemetry.records_events() {
                node.pricer.on_rejections(k, d);
                continue;
            }
            lanes.push(&mut node.pricer);
            lane_counts.push(d);
        }
        // Group similarly-sized chains into the same SIMD chunk: each chunk
        // runs for its max count, so mixing a 300-step chain with 5-step
        // ones wastes seven lanes. Node order is immaterial — the chains
        // are independent and each node's own step sequence is unchanged.
        let mut order: Vec<u32> = (0..lanes.len() as u32).collect();
        order.sort_unstable_by_key(|&i| core::cmp::Reverse(lane_counts[i as usize]));
        let mut sorted_lanes: Vec<&mut NonTatonnementPricer> = Vec::with_capacity(lanes.len());
        let mut sorted_counts: Vec<u64> = Vec::with_capacity(lanes.len());
        let mut lanes_opt: Vec<Option<&mut NonTatonnementPricer>> =
            lanes.into_iter().map(Some).collect();
        for &i in &order {
            sorted_lanes.push(lanes_opt[i as usize].take().expect("unique index"));
            sorted_counts.push(lane_counts[i as usize]);
        }
        NonTatonnementPricer::on_rejections_batch(&mut sorted_lanes, k, &sorted_counts);
    }

    /// Step 6: the node's offer was accepted — consume one supply unit
    /// (saturating: in bypass mode accepts may exceed the period supply).
    pub fn on_accept(&mut self, class: ClassId) {
        if let Some(s) = &mut self.supply {
            let _ = s.take_unit(class.index());
        }
    }

    /// Steps 12–14: the period elapsed; leftover supply lowers prices.
    /// Call `begin_period` afterwards to start the next round.
    pub fn end_period(&mut self) {
        let _span = self.spans.price_update.start();
        let leftover = self
            .supply
            .take()
            .unwrap_or_else(|| QuantityVector::zeros(self.num_classes()));
        self.pricer.on_period_end(&leftover);
        if self.config.renormalize_prices {
            self.pricer.renormalize();
        }
        self.spare = Some(leftover);
    }

    /// Diagnostic: highest private price across classes.
    pub fn max_price(&self) -> f64 {
        self.pricer.prices().max_price()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node N1 of the paper's example: q1 = 400 ms, q2 = 100 ms, T = 500 ms.
    fn n1() -> QantNode {
        let mut n = QantNode::new(2, QantConfig::default());
        n.begin_period(&[Some(400.0), Some(100.0)], None);
        n
    }

    #[test]
    fn initial_supply_prefers_denser_class() {
        // §3.3 walkthrough: at equal prices N1 supplies only q2.
        let n = n1();
        assert_eq!(n.supply().unwrap().as_slice(), &[0, 5]);
    }

    #[test]
    fn offers_while_supply_lasts_then_rejects_and_raises_price() {
        let mut n = n1();
        let p_before = n.prices().get(0);
        // q1 supply is zero: reject and raise p1.
        assert!(!n.on_request(ClassId(0)));
        assert!(n.prices().get(0) > p_before);
        // q2 has 5 units: all five offers succeed.
        for _ in 0..5 {
            assert!(n.on_request(ClassId(1)));
            n.on_accept(ClassId(1));
        }
        // Sixth q2 request: supply exhausted, reject, p2 rises.
        let p2 = n.prices().get(1);
        assert!(!n.on_request(ClassId(1)));
        assert!(n.prices().get(1) > p2);
    }

    #[test]
    fn rejections_eventually_shift_supply_to_scarce_class() {
        // Sustained unmet q1 demand must make N1 start supplying q1 —
        // the paper's §3.3 narrative.
        let mut n = n1();
        for _ in 0..60 {
            let _ = n.on_request(ClassId(0)); // unmet q1 demand
            n.end_period();
            n.begin_period(&[Some(400.0), Some(100.0)], None);
            if n.supply().unwrap().get(0) > 0 {
                break;
            }
        }
        assert!(
            n.supply().unwrap().get(0) > 0,
            "q1 price never rose enough: prices {}",
            n.prices()
        );
    }

    #[test]
    fn leftover_supply_decays_prices() {
        let mut n = n1();
        let p2 = n.prices().get(1);
        // Nothing consumed: 5 leftover q2 units.
        n.end_period();
        assert!(n.prices().get(1) < p2);
    }

    #[test]
    fn incapable_class_neither_offers_nor_moves_price() {
        let mut n = QantNode::new(2, QantConfig::default());
        n.begin_period(&[None, Some(100.0)], None);
        let p_before = n.prices().get(0);
        assert!(!n.on_request(ClassId(0)));
        assert_eq!(
            n.prices().get(0),
            p_before,
            "no market event for missing data"
        );
    }

    #[test]
    fn demand_caps_bound_supply() {
        let mut n = QantNode::new(2, QantConfig::default());
        let caps = QuantityVector::from_counts(vec![0, 2]);
        n.begin_period(&[Some(400.0), Some(100.0)], Some(&caps));
        assert_eq!(n.supply().unwrap().as_slice(), &[0, 2]);
    }

    #[test]
    fn threshold_mode_tracks_prices_and_engages_under_stress() {
        let cfg = QantConfig {
            price_threshold: Some(2.0),
            ..QantConfig::default()
        };
        let mut n = QantNode::new(1, cfg);
        n.begin_period(&[Some(400.0)], None);
        // Supply is 1; with the market quiet the node keeps offering
        // beyond it (bypass), but every over-supply acceptance is a
        // tracked rejection event that inflates the price…
        let mut offered_beyond_supply = 0;
        let mut engaged_at = None;
        for i in 0..20 {
            let offered = n.on_request(ClassId(0));
            if offered {
                n.on_accept(ClassId(0));
                if i > 0 {
                    offered_beyond_supply += 1;
                }
            } else {
                engaged_at = Some(i);
                break;
            }
        }
        // …until the price crosses 2× its initial value (1.1^8 ≈ 2.14)
        // and the restriction engages.
        assert!(offered_beyond_supply > 3, "bypass must have been active");
        let at = engaged_at.expect("restriction must eventually engage");
        assert!((5..=12).contains(&at), "engaged at request {at}");
        assert!(n.prices().get(0) > 2.0);
    }

    #[test]
    fn end_period_without_begin_is_safe() {
        let mut n = QantNode::new(3, QantConfig::default());
        n.end_period(); // no supply yet: all-zero leftover, prices unchanged
        assert_eq!(n.prices().get(0), 1.0);
    }

    #[test]
    fn node_emits_supply_and_rejection_events() {
        use qa_simnet::Telemetry;
        let (tel, buf) = Telemetry::buffered();
        let mut n = QantNode::new(2, QantConfig::default());
        n.set_telemetry(tel.with_label(4));
        n.begin_period(&[Some(400.0), Some(100.0)], None);
        let _ = n.on_request(ClassId(0)); // q1 supply is 0: refused
        let kinds: Vec<&str> = buf.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            vec!["supply_computed", "price_adjusted", "request_rejected"]
        );
        match &buf.records()[0].event {
            TelemetryEvent::SupplyComputed {
                node,
                budget_ms,
                supply,
            } => {
                assert_eq!(*node, 4);
                assert_eq!(*budget_ms, 500.0);
                assert_eq!(supply, &vec![0, 5]);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Spans landed in the registry, not the trace.
        let snap = tel.registry().unwrap().snapshot();
        assert!(snap
            .get("stats")
            .unwrap()
            .get("span.qant.supply_solve_us")
            .is_some());
    }

    #[test]
    fn accept_on_exhausted_supply_saturates() {
        let mut n = n1();
        for _ in 0..7 {
            n.on_accept(ClassId(1)); // more accepts than supply
        }
        assert_eq!(n.supply().unwrap().get(1), 0);
    }
}
