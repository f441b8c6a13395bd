//! Contention-aware network model.
//!
//! [`Network`] combines the topology with link
//! parameters (Table II) and models queueing with per-link *next-free-time*
//! reservations: a message reserves its source injection port, every
//! inter-stack link along its XY route, and the destination ejection port,
//! each for the message's serialization time. Latency is
//! `hops × hop-latency + serialization + queueing`.

use ndpx_sim::energy::Energy;
use ndpx_sim::fault::FaultPlan;
use ndpx_sim::stats::Counter;
use ndpx_sim::telemetry::StatScope;
use ndpx_sim::time::Time;

use crate::topology::{DistanceTable, Topology, UnitId};

/// Bandwidth/latency/energy parameters of one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Per-hop header latency.
    pub hop_latency: Time,
    /// Serialization bandwidth in bytes per nanosecond.
    pub bytes_per_ns: f64,
    /// Energy per bit per hop.
    pub pj_per_bit: f64,
}

impl LinkParams {
    /// Intra-stack NoC (Table II: 128-bit link, 1.5 ns/hop, 0.4 pJ/bit).
    ///
    /// The 128-bit link at the logic-die clock gives 32 B/ns effective
    /// serialization bandwidth.
    pub fn intra_stack() -> Self {
        LinkParams { hop_latency: Time::from_ns_f64(1.5), bytes_per_ns: 32.0, pj_per_bit: 0.4 }
    }

    /// Inter-stack SerDes links (Table II: 32 GB/s per direction, 10 ns/hop,
    /// 4 pJ/bit).
    pub fn inter_stack() -> Self {
        LinkParams { hop_latency: Time::from_ns(10), bytes_per_ns: 32.0, pj_per_bit: 4.0 }
    }

    /// Serialization delay of a message of `bytes` bytes.
    pub fn serialization(&self, bytes: u32) -> Time {
        Time::from_ns_f64(f64::from(bytes) / self.bytes_per_ns)
    }
}

/// Network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Messages sent.
    pub messages: Counter,
    /// Payload bytes moved.
    pub bytes: Counter,
    /// Total intra-stack hops traversed.
    pub intra_hops: Counter,
    /// Total inter-stack hops traversed.
    pub inter_hops: Counter,
}

/// Telemetry for one directed inter-stack link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages forwarded over this link.
    pub forwarded: Counter,
    /// Flits forwarded over this link (`FLIT_BYTES`-byte units).
    pub flits: Counter,
    /// Payload bytes forwarded over this link.
    pub bytes: Counter,
    /// Serialization time the link spent busy (utilization numerator:
    /// divide a window's `busy_ps` delta by the window width).
    pub busy: Time,
    /// Worst queueing delay a message saw waiting for this link.
    pub peak_wait: Time,
    /// Most reservations simultaneously held on this link's virtual
    /// channels at any injection instant.
    pub peak_inflight: u64,
    /// Link-level retransmissions after flit corruption (fault model).
    pub retransmits: Counter,
}

/// Size of one flit, bytes: the unit of the corruption model and of the
/// per-link flit counters.
const FLIT_BYTES: u32 = 16;

/// Flit-corruption fault model for the interconnect.
///
/// Each link traversal draws one decision from a deterministic
/// [`FaultPlan`]; the per-traversal corruption probability scales with the
/// message's flit count. A corrupted traversal is recovered by a link-level
/// retransmission: the message pays one extra hop latency plus
/// serialization, and the link's error counter increments.
#[derive(Debug, Clone, PartialEq)]
pub struct NocFault {
    plan: FaultPlan,
    /// Flit-error rate: corruption probability per flit per traversal.
    fer: f64,
    /// Total retransmissions across all links.
    retransmits: u64,
}

impl NocFault {
    /// Creates the model from a derived decision [`FaultPlan`] and a
    /// per-flit error rate.
    pub fn new(plan: FaultPlan, fer: f64) -> Self {
        NocFault { plan, fer, retransmits: 0 }
    }

    /// Corruption probability for one traversal of a `bytes`-byte message.
    #[inline]
    fn p_msg(&self, bytes: u32) -> f64 {
        (self.fer * f64::from(bytes.div_ceil(FLIT_BYTES))).min(1.0)
    }

    /// Total retransmissions injected so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Decisions drawn so far.
    pub fn rolls(&self) -> u64 {
        self.plan.rolls()
    }
}

/// Number of virtual channels per port and per inter-stack link.
///
/// Router buffering lets several in-flight packets overlap; modelling each
/// port/link as a single scalar `next_free` would falsely serialize a
/// message scheduled at a *future* time (e.g. a miss response leaving when
/// the extended memory answers) against earlier idle-time traffic. K
/// channels, each holding a reservation for K× the serialization time,
/// preserve aggregate bandwidth while allowing out-of-order overlap.
const VIRTUAL_CHANNELS: usize = 12;

/// The two-level NDP interconnect with reservation-based contention.
///
/// # Examples
///
/// ```
/// use ndpx_noc::network::{LinkParams, Network};
/// use ndpx_noc::topology::{IntraKind, Topology, UnitId};
/// use ndpx_sim::time::Time;
///
/// let mut net = Network::new(
///     Topology::paper_default(IntraKind::Mesh),
///     LinkParams::intra_stack(),
///     LinkParams::inter_stack(),
/// );
/// let arrival = net.send(UnitId(0), UnitId(17), 64, Time::ZERO);
/// assert!(arrival > Time::ZERO);
/// // A local "message" is free.
/// assert_eq!(net.send(UnitId(3), UnitId(3), 64, Time::ZERO), Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    intra: LinkParams,
    inter: LinkParams,
    /// Precomputed intra-/inter-stack hop counts for every unit pair.
    dist: DistanceTable,
    /// The stack of every unit, so the send path never divides by the
    /// units per stack.
    unit_stack: Vec<u32>,
    /// Per `(src stack, dst stack)` pair (row-major): the directed
    /// inter-stack link indices along the XY route, precomputed so `send`
    /// reserves links without re-deriving coordinates per hop.
    routes: Vec<Vec<u32>>,
    /// Injection (even) / ejection (odd) port channels per unit:
    /// `VIRTUAL_CHANNELS` next-free times each.
    unit_ports: Vec<Time>,
    /// Four directed inter-stack links per stack (E, W, N, S), with
    /// `VIRTUAL_CHANNELS` next-free times each.
    stack_links: Vec<Time>,
    /// Cross-stack messages, payload bytes, and flits per `(src stack, dst
    /// stack)` pair (row-major). Routes are static, so exact per-link
    /// forwarded counts are expanded from these at report time — the send
    /// hot loop only pays three adds per message instead of updates per hop.
    pair_msgs: Vec<u64>,
    pair_bytes: Vec<u64>,
    pair_flits: Vec<u64>,
    /// Worst queueing delay per directed inter-stack link (`stack × 4 +
    /// dir` indexing); updated per hop in `send`.
    link_peak_wait: Vec<Time>,
    /// Most simultaneously held virtual-channel reservations per directed
    /// inter-stack link (same indexing); piggybacks on the reservation scan,
    /// so it costs no extra pass.
    link_peak_inflight: Vec<u64>,
    /// Retransmissions per directed inter-stack link (same indexing as
    /// `link_peak_wait`); only touched by the fault model.
    link_retransmits: Vec<u64>,
    /// Dead directed inter-stack links (chaos link-down); routes avoid them.
    dead_links: Vec<bool>,
    /// Per-link forwarded/byte/flit counts flushed out of the per-pair
    /// counters at each reroute, so traffic carried over *old* routes is
    /// never re-attributed to the new ones.
    link_fwd_acc: Vec<u64>,
    link_bytes_acc: Vec<u64>,
    link_flits_acc: Vec<u64>,
    stats: NocStats,
    dynamic: Energy,
    fault: Option<NocFault>,
}

/// The directed link indices (`stack × 4 + dir`; 0=E, 1=W, 2=N, 3=S) an XY
/// route from `src_stack` to `dst_stack` traverses, in order.
fn route_links(topo: &Topology, src_stack: usize, dst_stack: usize) -> Vec<u32> {
    let (mut sx, mut sy) = topo.stack_coords(src_stack);
    let (dx, dy) = topo.stack_coords(dst_stack);
    let mut links = Vec::new();
    while sx != dx {
        let (dir, nx) = if sx < dx { (0usize, sx + 1) } else { (1, sx - 1) };
        links.push(((sy * topo.stacks_x + sx) * 4 + dir) as u32);
        sx = nx;
    }
    while sy != dy {
        let (dir, ny) = if sy < dy { (2usize, sy + 1) } else { (3, sy - 1) };
        links.push(((sy * topo.stacks_x + sx) * 4 + dir) as u32);
        sy = ny;
    }
    links
}

impl Network {
    /// Creates a network with all links idle.
    ///
    /// # Panics
    ///
    /// Panics if the topology fails validation.
    pub fn new(topo: Topology, intra: LinkParams, inter: LinkParams) -> Self {
        topo.validate().expect("invalid topology");
        let stacks = topo.stacks();
        let routes =
            (0..stacks * stacks).map(|i| route_links(&topo, i / stacks, i % stacks)).collect();
        Network {
            unit_ports: vec![Time::ZERO; topo.units() * 2 * VIRTUAL_CHANNELS],
            stack_links: vec![Time::ZERO; stacks * 4 * VIRTUAL_CHANNELS],
            pair_msgs: vec![0; stacks * stacks],
            pair_bytes: vec![0; stacks * stacks],
            pair_flits: vec![0; stacks * stacks],
            link_peak_wait: vec![Time::ZERO; stacks * 4],
            link_peak_inflight: vec![0; stacks * 4],
            link_retransmits: vec![0; stacks * 4],
            dead_links: vec![false; stacks * 4],
            link_fwd_acc: vec![0; stacks * 4],
            link_bytes_acc: vec![0; stacks * 4],
            link_flits_acc: vec![0; stacks * 4],
            dist: DistanceTable::new(&topo),
            unit_stack: (0..topo.units()).map(|u| topo.stack_of(UnitId(u)) as u32).collect(),
            routes,
            topo,
            intra,
            inter,
            stats: NocStats::default(),
            dynamic: Energy::ZERO,
            fault: None,
        }
    }

    /// Installs (or clears) the flit-corruption fault model.
    pub fn set_fault(&mut self, fault: Option<NocFault>) {
        self.fault = fault;
    }

    /// The installed fault model, if any.
    pub fn fault(&self) -> Option<&NocFault> {
        self.fault.as_ref()
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The stack holding `unit` ([`Topology::stack_of`], read from a
    /// per-unit table).
    #[inline]
    pub fn stack_of(&self, unit: UnitId) -> usize {
        self.unit_stack[unit.index()] as usize
    }

    /// Uncontended one-way latency between two units for a message of
    /// `bytes` — used by the runtime's attenuation factors and by tests.
    pub fn base_latency(&self, src: UnitId, dst: UnitId, bytes: u32) -> Time {
        if src == dst {
            return Time::ZERO;
        }
        let intra_h = self.dist.intra_hops(src, dst) as u64;
        let inter_h = self.inter_hops(src, dst);
        let mut t = self.intra.hop_latency * intra_h + self.inter.hop_latency * inter_h;
        t += if inter_h > 0 {
            self.inter.serialization(bytes)
        } else {
            self.intra.serialization(bytes)
        };
        t
    }

    /// Sends `bytes` from `src` to `dst` no earlier than `now`; returns the
    /// arrival time. Reserves ports and inter-stack links for the message's
    /// serialization time.
    pub fn send(&mut self, src: UnitId, dst: UnitId, bytes: u32, now: Time) -> Time {
        if src == dst {
            return now;
        }
        let intra_h = self.dist.intra_hops(src, dst) as u64;
        let inter_h = self.inter_hops(src, dst);
        self.stats.messages.inc();
        self.stats.bytes.add(u64::from(bytes));
        self.stats.intra_hops.add(intra_h);
        self.stats.inter_hops.add(inter_h);

        let bits = f64::from(bytes) * 8.0;
        self.dynamic += Energy::from_pj(self.intra.pj_per_bit * bits * intra_h as f64);
        self.dynamic += Energy::from_pj(self.inter.pj_per_bit * bits * inter_h as f64);

        let intra_ser = self.intra.serialization(bytes);
        let inter_ser = self.inter.serialization(bytes);

        // Source injection port.
        let mut t =
            Self::reserve(port_channels(&mut self.unit_ports, src.index() * 2), now, intra_ser).0;
        t += self.intra.hop_latency * intra_h;

        // Inter-stack XY route (links precomputed per stack pair).
        if inter_h > 0 {
            let pair = self.stack_of(src) * self.topo.stacks() + self.stack_of(dst);
            self.pair_msgs[pair] += 1;
            self.pair_bytes[pair] += u64::from(bytes);
            self.pair_flits[pair] += u64::from(bytes.div_ceil(FLIT_BYTES));
            for &link in &self.routes[pair] {
                let (start, busy) = Self::reserve(
                    port_channels(&mut self.stack_links, link as usize),
                    t,
                    inter_ser,
                );
                // This reservation plus every channel still pending at `t`.
                let inflight = u64::from(busy) + 1;
                if inflight > self.link_peak_inflight[link as usize] {
                    self.link_peak_inflight[link as usize] = inflight;
                }
                let wait = start.saturating_sub(t);
                if wait > self.link_peak_wait[link as usize] {
                    self.link_peak_wait[link as usize] = wait;
                }
                t = start + self.inter.hop_latency;
                if let Some(f) = &mut self.fault {
                    if f.plan.roll(f.p_msg(bytes)) {
                        // Corrupted flit: the link retransmits the message,
                        // paying one extra hop plus serialization.
                        f.retransmits += 1;
                        self.link_retransmits[link as usize] += 1;
                        self.dynamic += Energy::from_pj(self.inter.pj_per_bit * bits);
                        t += self.inter.hop_latency + inter_ser;
                    }
                }
            }
        } else if let Some(f) = &mut self.fault {
            // Intra-stack-only messages draw one decision for the whole
            // path; a corruption retransmits over the local mesh.
            if f.plan.roll(f.p_msg(bytes)) {
                f.retransmits += 1;
                self.dynamic += Energy::from_pj(self.intra.pj_per_bit * bits);
                t += self.intra.hop_latency + intra_ser;
            }
        }

        // Destination ejection port, then the payload streams out.
        t = Self::reserve(port_channels(&mut self.unit_ports, dst.index() * 2 + 1), t, intra_ser).0;
        t + if inter_h > 0 { inter_ser } else { intra_ser }
    }

    /// Reserves the least-loaded virtual channel: each channel holds the
    /// reservation for `VIRTUAL_CHANNELS ×` the serialization time, so the
    /// resource's aggregate bandwidth is unchanged. Also returns how many
    /// channels were still reserved past `at` (first-min slot selection is
    /// unchanged; the busy count rides on the same scan).
    #[inline]
    fn reserve(channels: &mut [Time], at: Time, hold: Time) -> (Time, u32) {
        let mut slot = 0usize;
        let mut best = Time::MAX;
        let mut busy = 0u32;
        for (i, &c) in channels.iter().enumerate() {
            if c > at {
                busy += 1;
            }
            if c < best {
                best = c;
                slot = i;
            }
        }
        let start = at.max(best);
        channels[slot] = start + hold * VIRTUAL_CHANNELS as u64;
        (start, busy)
    }

    /// Inter-stack hops between two units over the *current* routes. Equals
    /// the Manhattan stack distance while every link is alive (routes are
    /// XY); after a link death it reflects the detour.
    fn inter_hops(&self, src: UnitId, dst: UnitId) -> u64 {
        let s = self.stack_of(src);
        let d = self.stack_of(dst);
        if s == d {
            0
        } else {
            self.routes[s * self.topo.stacks() + d].len() as u64
        }
    }

    /// Marks the directed inter-stack link `src_stack → dst_stack` dead
    /// (or alive again) and recomputes every route around the dead set.
    /// Returns `false` (and changes nothing) when the stacks are not
    /// grid-adjacent. Already-carried traffic keeps its attribution: the
    /// per-pair counters are flushed over the old routes first.
    pub fn set_link_dead(&mut self, src_stack: usize, dst_stack: usize, dead: bool) -> bool {
        let stacks = self.topo.stacks();
        if src_stack >= stacks || dst_stack >= stacks {
            return false;
        }
        let (sx, sy) = self.topo.stack_coords(src_stack);
        let (dx, dy) = self.topo.stack_coords(dst_stack);
        let dir = match (dx as isize - sx as isize, dy as isize - sy as isize) {
            (1, 0) => 0usize,
            (-1, 0) => 1,
            (0, 1) => 2,
            (0, -1) => 3,
            _ => return false,
        };
        let idx = (sy * self.topo.stacks_x + sx) * 4 + dir;
        if self.dead_links[idx] == dead {
            return true;
        }
        self.flush_pair_counters();
        self.dead_links[idx] = dead;
        self.recompute_routes();
        true
    }

    /// Number of currently dead directed links.
    pub fn dead_link_count(&self) -> u64 {
        self.dead_links.iter().filter(|&&d| d).count() as u64
    }

    /// Expands the per-pair counters over the current routes into the
    /// per-link accumulators and zeroes them, so a route change cannot
    /// misattribute earlier traffic.
    fn flush_pair_counters(&mut self) {
        for (pair, msgs) in self.pair_msgs.iter_mut().enumerate() {
            if *msgs == 0 {
                continue;
            }
            for &link in &self.routes[pair] {
                self.link_fwd_acc[link as usize] += *msgs;
                self.link_bytes_acc[link as usize] += self.pair_bytes[pair];
                self.link_flits_acc[link as usize] += self.pair_flits[pair];
            }
            *msgs = 0;
            self.pair_bytes[pair] = 0;
            self.pair_flits[pair] = 0;
        }
    }

    /// Rebuilds every stack-pair route around the dead-link set: plain XY
    /// when everything is alive, otherwise a deterministic BFS (fixed
    /// E/W/N/S neighbor order) over the surviving grid. A pair the dead set
    /// disconnects keeps its XY route — the link is still modelled, so the
    /// traffic pays the escalated (contended) path rather than vanishing.
    fn recompute_routes(&mut self) {
        let stacks = self.topo.stacks();
        if self.dead_links.iter().all(|&d| !d) {
            self.routes = (0..stacks * stacks)
                .map(|i| route_links(&self.topo, i / stacks, i % stacks))
                .collect();
            return;
        }
        for src in 0..stacks {
            // BFS shortest paths from `src` over live links.
            let mut prev: Vec<Option<(usize, u32)>> = vec![None; stacks];
            let mut seen = vec![false; stacks];
            let mut queue = std::collections::VecDeque::new();
            seen[src] = true;
            queue.push_back(src);
            while let Some(s) = queue.pop_front() {
                let (sx, sy) = self.topo.stack_coords(s);
                let neighbors = [
                    (0usize, sx + 1, sy, sx + 1 < self.topo.stacks_x),
                    (1, sx.wrapping_sub(1), sy, sx > 0),
                    (2, sx, sy + 1, sy + 1 < self.topo.stacks_y),
                    (3, sx, sy.wrapping_sub(1), sy > 0),
                ];
                for (dir, nx, ny, on_grid) in neighbors {
                    if !on_grid {
                        continue;
                    }
                    let link = ((sy * self.topo.stacks_x + sx) * 4 + dir) as u32;
                    if self.dead_links[link as usize] {
                        continue;
                    }
                    let n = ny * self.topo.stacks_x + nx;
                    if !seen[n] {
                        seen[n] = true;
                        prev[n] = Some((s, link));
                        queue.push_back(n);
                    }
                }
            }
            for (dst, &reached) in seen.iter().enumerate() {
                if dst == src {
                    continue;
                }
                let pair = src * stacks + dst;
                if !reached {
                    self.routes[pair] = route_links(&self.topo, src, dst);
                    continue;
                }
                let mut links = Vec::new();
                let mut cur = dst;
                while let Some((p, link)) = prev[cur] {
                    links.push(link);
                    cur = p;
                }
                links.reverse();
                self.routes[pair] = links;
            }
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Per-directed-link telemetry, indexed `stack × 4 + dir`
    /// (0=E, 1=W, 2=N, 3=S). Forwarded/byte/flit counts and busy time are
    /// expanded exactly from the per-stack-pair counters over the static
    /// routes.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        let mut out = vec![LinkStats::default(); self.topo.stacks() * 4];
        // Traffic carried before the last reroute, flushed over its
        // then-current routes.
        for (i, ls) in out.iter_mut().enumerate() {
            ls.forwarded.add(self.link_fwd_acc[i]);
            ls.bytes.add(self.link_bytes_acc[i]);
            ls.flits.add(self.link_flits_acc[i]);
        }
        for (pair, &msgs) in self.pair_msgs.iter().enumerate() {
            if msgs == 0 {
                continue;
            }
            let bytes = self.pair_bytes[pair];
            let flits = self.pair_flits[pair];
            for &link in &self.routes[pair] {
                out[link as usize].forwarded.add(msgs);
                out[link as usize].bytes.add(bytes);
                out[link as usize].flits.add(flits);
            }
        }
        for ls in out.iter_mut() {
            ls.busy = Time::from_ns_f64(ls.bytes.get() as f64 / self.inter.bytes_per_ns);
        }
        for (ls, &w) in out.iter_mut().zip(&self.link_peak_wait) {
            ls.peak_wait = w;
        }
        for (ls, &p) in out.iter_mut().zip(&self.link_peak_inflight) {
            ls.peak_inflight = p;
        }
        for (ls, &r) in out.iter_mut().zip(&self.link_retransmits) {
            ls.retransmits.add(r);
        }
        out
    }

    /// Destination stack of directed link `idx` (`stack × 4 + dir`). Only
    /// meaningful for links that carried traffic — XY routes never leave the
    /// grid, so a traffic-bearing link always has an on-grid neighbor.
    fn link_dst_stack(&self, idx: usize) -> usize {
        let (sx, sy) = self.topo.stack_coords(idx / 4);
        let (dx, dy) = match idx % 4 {
            0 => (sx + 1, sy),
            1 => (sx - 1, sy),
            2 => (sx, sy + 1),
            _ => (sx, sy - 1),
        };
        dy * self.topo.stacks_x + dx
    }

    /// Publishes aggregate and per-directed-link stats under `scope`
    /// (`…​.messages`, `…​.link.s00-s01.flits`, …). Links are named by their
    /// directed `source-destination` stack pair; idle links are omitted.
    /// Traffic is a deterministic function of the run, so the dump stays
    /// reproducible.
    pub fn register_stats(&self, scope: &mut StatScope<'_>) {
        scope.count("messages", self.stats.messages.get());
        scope.count("bytes", self.stats.bytes.get());
        scope.count("intra_hops", self.stats.intra_hops.get());
        scope.count("inter_hops", self.stats.inter_hops.get());
        scope.gauge("dynamic_pj", self.dynamic.as_pj());
        for (i, ls) in self.link_stats().iter().enumerate() {
            if ls.forwarded.get() == 0 {
                continue;
            }
            let mut link =
                scope.scope(&format!("link.s{:02}-s{:02}", i / 4, self.link_dst_stack(i)));
            link.count("forwarded", ls.forwarded.get());
            link.count("flits", ls.flits.get());
            link.count("bytes", ls.bytes.get());
            link.count("busy_ps", ls.busy.as_ps());
            link.count("peak_wait_ps", ls.peak_wait.as_ps());
            link.count("peak_inflight", ls.peak_inflight);
            if ls.retransmits.get() > 0 {
                link.count("retransmits", ls.retransmits.get());
            }
        }
    }

    /// Publishes aggregate fault counters under `scope` (no-op without a
    /// fault model, so disabled runs keep their registry dumps
    /// byte-identical).
    pub fn register_fault_stats(&self, scope: &mut StatScope<'_>) {
        if let Some(f) = &self.fault {
            scope.count("retransmits", f.retransmits);
            scope.count("rolls", f.plan.rolls());
        }
    }

    /// Dynamic link energy consumed so far.
    pub fn dynamic_energy(&self) -> Energy {
        self.dynamic
    }
}

/// The `VIRTUAL_CHANNELS`-wide slice of resource `idx`.
#[inline]
fn port_channels(store: &mut [Time], idx: usize) -> &mut [Time] {
    &mut store[idx * VIRTUAL_CHANNELS..(idx + 1) * VIRTUAL_CHANNELS]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::IntraKind;

    fn mesh_net() -> Network {
        Network::new(
            Topology::paper_default(IntraKind::Mesh),
            LinkParams::intra_stack(),
            LinkParams::inter_stack(),
        )
    }

    #[test]
    fn local_send_is_free() {
        let mut n = mesh_net();
        assert_eq!(n.send(UnitId(5), UnitId(5), 64, Time::from_ns(7)), Time::from_ns(7));
        assert_eq!(n.stats().messages.get(), 0);
    }

    #[test]
    fn same_stack_latency_matches_base() {
        let mut n = mesh_net();
        // local 0 -> local 1: one intra hop.
        let arrival = n.send(UnitId(0), UnitId(1), 64, Time::ZERO);
        assert_eq!(arrival, n.base_latency(UnitId(0), UnitId(1), 64));
        // 1.5 ns hop + 2 ns serialization of 64 B at 32 B/ns.
        assert_eq!(arrival.as_ps(), 1_500 + 2_000);
    }

    #[test]
    fn cross_stack_includes_inter_hops() {
        let mut n = mesh_net();
        // Stack 0 -> stack 1, both at port units (local 0): 1 inter hop.
        let arrival = n.send(UnitId(0), UnitId(16), 64, Time::ZERO);
        // 10 ns hop + 2 ns inter serialization; no intra hops (both at ports).
        assert_eq!(arrival.as_ps(), 10_000 + 2_000);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut n = mesh_net();
        // Fill every virtual channel of the shared inter-stack link with
        // 4 kB messages, then one more must queue behind serialization.
        let first = n.send(UnitId(0), UnitId(16), 4096, Time::ZERO);
        let mut last = first;
        for _ in 0..40 {
            last = n.send(UnitId(0), UnitId(16), 4096, Time::ZERO);
        }
        assert!(last > first);
        // 41 × 4 kB at 32 B/ns aggregate needs ≥ 5 µs of link time; the last
        // arrival reflects that queueing.
        assert!(last - first >= Time::from_ns(2000), "got {}", last - first);
    }

    #[test]
    fn future_reservation_does_not_block_idle_window() {
        let mut n = mesh_net();
        // A message scheduled far in the future must not delay an
        // earlier-issued message on the same ports.
        let _late = n.send(UnitId(0), UnitId(16), 64, Time::from_us(10));
        let early = n.send(UnitId(0), UnitId(16), 64, Time::ZERO);
        assert!(early < Time::from_us(1), "early message queued behind future one: {early}");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut n = mesh_net();
        let a = n.send(UnitId(0), UnitId(1), 64, Time::ZERO);
        let b = n.send(UnitId(2), UnitId(3), 64, Time::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn energy_scales_with_hops_and_bytes() {
        let mut n = mesh_net();
        n.send(UnitId(0), UnitId(1), 64, Time::ZERO);
        let one_hop = n.dynamic_energy();
        // 64 B over one intra hop at 0.4 pJ/bit.
        assert!((one_hop.as_pj() - 64.0 * 8.0 * 0.4).abs() < 1e-9);
        n.send(UnitId(0), UnitId(16), 64, Time::ZERO);
        let with_inter = n.dynamic_energy() - one_hop;
        // Inter hop at 4 pJ/bit dominates.
        assert!(with_inter.as_pj() > 64.0 * 8.0 * 4.0 - 1e-9);
    }

    #[test]
    fn base_latency_monotonic_in_distance() {
        let n = mesh_net();
        let near = n.base_latency(UnitId(0), UnitId(1), 64);
        let far = n.base_latency(UnitId(0), UnitId(127), 64);
        assert!(far > near);
    }

    #[test]
    fn stats_count_hops() {
        let mut n = mesh_net();
        n.send(UnitId(0), UnitId(17), 64, Time::ZERO);
        // src local 0 -> port 0 hops; inter 1 hop; dst local 1: 1 intra hop.
        assert_eq!(n.stats().inter_hops.get(), 1);
        assert_eq!(n.stats().intra_hops.get(), 1);
        assert_eq!(n.stats().messages.get(), 1);
        assert_eq!(n.stats().bytes.get(), 64);
    }

    #[test]
    fn per_link_stats_track_forwarding() {
        let mut n = mesh_net();
        // Stack 0 -> stack 1 crosses stack 0's east link (index 0).
        n.send(UnitId(0), UnitId(16), 64, Time::ZERO);
        n.send(UnitId(0), UnitId(16), 64, Time::ZERO);
        let east = n.link_stats()[0];
        assert_eq!(east.forwarded.get(), 2);
        assert_eq!(east.bytes.get(), 128);
        // 64 B messages are 4 flits each at 16 B/flit.
        assert_eq!(east.flits.get(), 8);
        // 128 B at 32 B/ns keeps the link busy 4 ns.
        assert_eq!(east.busy, Time::from_ns(4));
        assert!(east.peak_inflight >= 1);
        assert!(n.link_stats().iter().skip(1).all(|l| l.forwarded.get() == 0));

        let mut reg = ndpx_sim::telemetry::StatRegistry::new();
        n.register_stats(&mut reg.scope("noc"));
        let json = reg.to_json();
        assert!(json.contains("\"noc.link.s00-s01.forwarded\": 2"));
        assert!(json.contains("\"noc.link.s00-s01.flits\": 8"));
        assert!(json.contains("\"noc.link.s00-s01.busy_ps\": 4000"));
        assert!(json.contains("\"noc.link.s00-s01.peak_inflight\": "));
        assert!(!json.contains("s01-s00"), "idle links are omitted");
    }

    #[test]
    fn peak_inflight_counts_overlapping_reservations() {
        let mut n = mesh_net();
        // Saturate one inter-stack link with big simultaneous messages: the
        // peak must exceed one reservation and never exceed the channel
        // count.
        for _ in 0..40 {
            n.send(UnitId(0), UnitId(16), 4096, Time::ZERO);
        }
        let east = n.link_stats()[0];
        assert!(east.peak_inflight > 1, "got {}", east.peak_inflight);
        assert!(east.peak_inflight <= VIRTUAL_CHANNELS as u64);
        // A quiet link that saw one message at an idle instant records 1.
        let mut q = mesh_net();
        q.send(UnitId(0), UnitId(16), 64, Time::ZERO);
        assert_eq!(q.link_stats()[0].peak_inflight, 1);
    }

    fn faulty_net(fer: f64) -> Network {
        use ndpx_sim::fault::{domain, FaultPlan};
        let mut n = mesh_net();
        n.set_fault(Some(NocFault::new(FaultPlan::derive(3, domain::NOC, 0), fer)));
        n
    }

    #[test]
    fn zero_fer_changes_no_timing() {
        let mut ideal = mesh_net();
        let mut f = faulty_net(0.0);
        for i in 0..64u64 {
            let (s, d) = (UnitId((i % 16) as usize), UnitId((i % 128) as usize));
            let t = Time::from_ns(i * 5);
            assert_eq!(ideal.send(s, d, 64, t), f.send(s, d, 64, t));
        }
        let nf = f.fault().expect("installed");
        assert_eq!(nf.retransmits(), 0);
        assert!(nf.rolls() > 0, "decisions must still be drawn");
    }

    #[test]
    fn corruption_retransmits_and_counts_per_link() {
        let mut ideal = mesh_net();
        let mut f = faulty_net(1.0); // every traversal corrupts once
        let a = ideal.send(UnitId(0), UnitId(16), 64, Time::ZERO);
        let b = f.send(UnitId(0), UnitId(16), 64, Time::ZERO);
        // One inter link: exactly one extra hop + serialization.
        let inter = LinkParams::inter_stack();
        assert_eq!(b - a, inter.hop_latency + inter.serialization(64));
        assert_eq!(f.fault().expect("installed").retransmits(), 1);
        let east = f.link_stats()[0];
        assert_eq!(east.retransmits.get(), 1);

        let mut reg = ndpx_sim::telemetry::StatRegistry::new();
        f.register_stats(&mut reg.scope("noc"));
        f.register_fault_stats(&mut reg.scope("fault.noc"));
        let json = reg.to_json();
        assert!(json.contains("\"noc.link.s00-s01.retransmits\": 1"));
        assert!(json.contains("\"fault.noc.retransmits\": 1"));
    }

    #[test]
    fn intra_only_corruption_hits_aggregate_counter() {
        let mut ideal = mesh_net();
        let mut f = faulty_net(1.0);
        let a = ideal.send(UnitId(0), UnitId(1), 64, Time::ZERO);
        let b = f.send(UnitId(0), UnitId(1), 64, Time::ZERO);
        let intra = LinkParams::intra_stack();
        assert_eq!(b - a, intra.hop_latency + intra.serialization(64));
        assert_eq!(f.fault().expect("installed").retransmits(), 1);
        assert!(f.link_stats().iter().all(|l| l.retransmits.get() == 0));
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let run = || {
            let mut f = faulty_net(0.05);
            for i in 0..500u64 {
                f.send(
                    UnitId((i % 16) as usize),
                    UnitId(((i * 7) % 128) as usize),
                    256,
                    Time::ZERO,
                );
            }
            let nf = f.fault().expect("installed");
            (nf.retransmits(), nf.rolls())
        };
        assert_eq!(run(), run());
        let (retransmits, rolls) = run();
        assert!(retransmits > 0);
        assert!(rolls >= 500);
    }

    #[test]
    fn dead_link_reroutes_and_restores() {
        let mut n = mesh_net(); // 4×2 stack grid
        let inter = LinkParams::inter_stack();
        // Healthy: stack 0 → 1 crosses the east link (index 0), one hop.
        assert_eq!(n.send(UnitId(0), UnitId(16), 64, Time::ZERO).as_ps(), 12_000);
        assert!(n.set_link_dead(0, 1, true));
        assert_eq!(n.dead_link_count(), 1);
        // The detour goes (0,0)→(0,1)→(1,1)→(1,0): three hops.
        let detour = n.base_latency(UnitId(0), UnitId(16), 64);
        assert_eq!(detour, inter.hop_latency * 3 + inter.serialization(64));
        assert_eq!(
            n.send(UnitId(0), UnitId(16), 64, Time::from_us(50)),
            Time::from_us(50) + detour
        );
        // Pre-reroute traffic keeps its attribution to the old east link;
        // the new message rides the detour's first link (stack 0 north).
        let stats = n.link_stats();
        assert_eq!(stats[0].forwarded.get(), 1, "old route's traffic stays put");
        assert_eq!(stats[2].forwarded.get(), 1, "detour traffic lands on the north link");
        // Restore: XY routing returns and the dead set empties.
        assert!(n.set_link_dead(0, 1, false));
        assert_eq!(n.dead_link_count(), 0);
        assert_eq!(n.base_latency(UnitId(0), UnitId(16), 64).as_ps(), 12_000);
        // Flushed attribution survives the second reroute too.
        let stats = n.link_stats();
        assert_eq!(stats[0].forwarded.get(), 1);
        assert_eq!(stats[2].forwarded.get(), 1);
    }

    #[test]
    fn set_link_dead_rejects_non_adjacent_stacks() {
        let mut n = mesh_net();
        assert!(!n.set_link_dead(0, 2, true), "two hops apart");
        assert!(!n.set_link_dead(0, 0, true), "self loop");
        assert!(!n.set_link_dead(0, 99, true), "out of range");
        assert_eq!(n.dead_link_count(), 0);
    }
}
