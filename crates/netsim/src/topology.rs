//! Cluster topologies and deterministic routing.
//!
//! Three topologies from the paper are implemented:
//!
//! - **Leaf-Spine** (Table 5 / Figure 11): racks of hosts under ToR
//!   switches, fully connected to a spine layer. The default is 8 racks ×
//!   16 hosts with 16 spines.
//! - **HyperX** (§9.6): switches on a 3-D integer lattice, fully connected
//!   along each dimension line, with dimension-ordered routing. The paper's
//!   instance is 4×4×2 with 4 hosts per switch.
//! - **Dragonfly** (§9.6): groups of fully meshed switches with global
//!   links between groups and minimal routing. The paper's instance is 4
//!   groups of 8 switches, 4 hosts per switch.
//!
//! Routing is deterministic (the paper assumes deterministic routing so the
//! Property Cache's read/response paths match); every `(src, dst)` pair has
//! exactly one path, precomputed at construction.

use std::collections::{BTreeMap, BTreeSet};

/// Identifies a switch within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u32);

/// Identifies a directed link within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// A network element: a node's NIC or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Element {
    /// The SmartNIC of cluster node `n`.
    Nic(u32),
    /// Switch `s`.
    Switch(SwitchId),
}

/// One hop of a path: traverse `link`, arriving at `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The directed link traversed.
    pub link: LinkId,
    /// The element reached.
    pub to: Element,
}

/// A precomputed route between two NICs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Path {
    /// Ordered hops from the source NIC to the destination NIC.
    pub hops: Vec<Hop>,
}

impl Path {
    /// The switches traversed, in order.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.hops.iter().filter_map(|h| match h.to {
            Element::Switch(s) => Some(s),
            Element::Nic(_) => None,
        })
    }
}

/// A cluster topology description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Hosts in racks under ToR switches; every ToR connects to every
    /// spine. Inter-rack traffic takes `ToR -> spine -> ToR`.
    LeafSpine {
        /// Number of racks (= ToR switches).
        racks: u32,
        /// Hosts per rack.
        rack_size: u32,
        /// Number of spine switches.
        spines: u32,
    },
    /// Switches on a `dims[0] x dims[1] x dims[2]` lattice, fully connected
    /// along each dimension; dimension-ordered (x, y, z) routing.
    HyperX {
        /// Lattice extents.
        dims: [u32; 3],
        /// Hosts attached to each switch.
        hosts_per_switch: u32,
    },
    /// Groups of fully meshed switches with `global_links_per_pair` links
    /// between every pair of groups; minimal routing.
    Dragonfly {
        /// Number of groups.
        groups: u32,
        /// Switches per group (fully meshed within a group).
        switches_per_group: u32,
        /// Hosts attached to each switch.
        hosts_per_switch: u32,
        /// Global links between each pair of groups.
        global_links_per_pair: u32,
    },
}

impl Topology {
    /// The paper's default cluster: 8 racks × 16 nodes, 16 spines.
    pub fn leaf_spine_128() -> Topology {
        Topology::LeafSpine {
            racks: 8,
            rack_size: 16,
            spines: 16,
        }
    }

    /// The paper's HyperX alternative: 4×4×2 switches, 4 hosts each.
    pub fn hyperx_128() -> Topology {
        Topology::HyperX {
            dims: [4, 4, 2],
            hosts_per_switch: 4,
        }
    }

    /// The paper's Dragonfly alternative: 4 groups × 8 switches, 4 hosts
    /// each, 4 global links per group pair.
    pub fn dragonfly_128() -> Topology {
        Topology::Dragonfly {
            groups: 4,
            switches_per_group: 8,
            hosts_per_switch: 4,
            global_links_per_pair: 4,
        }
    }

    /// Total cluster nodes.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        match *self {
            Topology::LeafSpine {
                racks, rack_size, ..
            } => racks * rack_size,
            Topology::HyperX {
                dims,
                hosts_per_switch,
            } => dims[0] * dims[1] * dims[2] * hosts_per_switch,
            Topology::Dragonfly {
                groups,
                switches_per_group,
                hosts_per_switch,
                ..
            } => groups * switches_per_group * hosts_per_switch,
        }
    }

    /// Total switches.
    #[must_use]
    pub fn switches(&self) -> u32 {
        match *self {
            Topology::LeafSpine { racks, spines, .. } => racks + spines,
            Topology::HyperX { dims, .. } => dims[0] * dims[1] * dims[2],
            Topology::Dragonfly {
                groups,
                switches_per_group,
                ..
            } => groups * switches_per_group,
        }
    }

    /// The edge switch (ToR equivalent) each node attaches to.
    #[must_use]
    pub fn edge_switch_of(&self, node: u32) -> SwitchId {
        match *self {
            Topology::LeafSpine { rack_size, .. } => SwitchId(node / rack_size),
            Topology::HyperX {
                hosts_per_switch, ..
            }
            | Topology::Dragonfly {
                hosts_per_switch, ..
            } => SwitchId(node / hosts_per_switch),
        }
    }

    /// Whether switch `s` has hosts attached (NetSparse extensions are
    /// deployed only in such switches).
    #[must_use]
    pub fn is_edge_switch(&self, s: SwitchId) -> bool {
        match *self {
            Topology::LeafSpine { racks, .. } => s.0 < racks,
            Topology::HyperX { .. } | Topology::Dragonfly { .. } => true,
        }
    }

    /// How many distinct deterministic route choices each `(src, dst)`
    /// pair has — the fan the failover logic walks (ECMP-style
    /// next-choice). Choice 0 is the primary route of [`Network::path`].
    pub fn route_choices(&self) -> u32 {
        match *self {
            // One choice per spine.
            Topology::LeafSpine { spines, .. } => spines.max(1),
            // One choice per dimension-correction order.
            Topology::HyperX { .. } => DIM_ORDERS.len() as u32,
            // One choice per global link between the group pair.
            Topology::Dragonfly {
                global_links_per_pair,
                ..
            } => global_links_per_pair.max(1),
        }
    }
}

/// The six dimension-correction orders HyperX failover rotates through.
const DIM_ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The set of currently failed network elements.
///
/// A dead switch implicitly kills every link attached to it; the set only
/// records the switch. Links can also die individually (a cut fiber with
/// both switches alive).
///
/// # Example
///
/// ```
/// use netsparse_netsim::{topology::FailureSet, Network, SwitchId, Topology};
///
/// let net = Network::new(Topology::leaf_spine_128());
/// let mut down = FailureSet::new();
/// down.fail_switch(SwitchId(8)); // first spine
/// // Traffic re-routes around the dead spine deterministically.
/// let p = net.failover_path(0, 16, &down).expect("other spines live");
/// assert!(p.switches().all(|s| s != SwitchId(8)));
/// down.repair_switch(SwitchId(8));
/// assert!(down.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSet {
    dead_links: BTreeSet<LinkId>,
    dead_switches: BTreeSet<SwitchId>,
}

impl FailureSet {
    /// An empty (fully healthy) set.
    pub fn new() -> Self {
        FailureSet::default()
    }

    /// Marks a directed link dead.
    pub fn fail_link(&mut self, l: LinkId) {
        self.dead_links.insert(l);
    }

    /// Repairs a directed link.
    pub fn repair_link(&mut self, l: LinkId) {
        self.dead_links.remove(&l);
    }

    /// Marks a switch dead (all its links become unusable).
    pub fn fail_switch(&mut self, s: SwitchId) {
        self.dead_switches.insert(s);
    }

    /// Repairs a switch.
    pub fn repair_switch(&mut self, s: SwitchId) {
        self.dead_switches.remove(&s);
    }

    /// Whether everything is healthy.
    pub fn is_empty(&self) -> bool {
        self.dead_links.is_empty() && self.dead_switches.is_empty()
    }

    /// Whether link `l` itself is marked dead (switch deaths not
    /// considered; see [`Network::path_is_usable`]).
    pub fn link_dead(&self, l: LinkId) -> bool {
        self.dead_links.contains(&l)
    }

    /// Whether switch `s` is dead.
    pub fn switch_dead(&self, s: SwitchId) -> bool {
        self.dead_switches.contains(&s)
    }
}

/// A typed routing failure from the fallible [`Network`] constructors and
/// path lookups (`try_new`, `try_path`, `try_path_with_choice`).
///
/// The panicking wrappers ([`Network::new`], [`Network::path`]) abort with
/// this error's `Display` text; callers that must survive arbitrary
/// generated topologies (the chaos harness, `try_simulate`) use the `try_`
/// variants and route the error upward instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The topology has fewer than 2 nodes — nothing to route between.
    DegenerateTopology {
        /// Node count of the offending topology.
        nodes: u32,
    },
    /// A path endpoint does not exist in the topology.
    NodeOutOfRange {
        /// The requested node.
        node: u32,
        /// Number of nodes the topology actually has.
        nodes: u32,
    },
    /// A route from a node to itself was requested; self-traffic never
    /// enters the network.
    SelfRoute {
        /// The node routed to itself.
        node: u32,
    },
    /// A route references a link the topology does not have — a
    /// malformed or internally inconsistent topology description.
    MissingLink {
        /// Route source node.
        src: u32,
        /// Route destination node.
        dst: u32,
        /// ECMP route choice being materialized.
        choice: u32,
        /// The hop's upstream element.
        from: Element,
        /// The hop's downstream element.
        to: Element,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RouteError::DegenerateTopology { nodes } => {
                write!(f, "topology must have at least 2 nodes, got {nodes}")
            }
            RouteError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range: topology has {nodes} nodes")
            }
            RouteError::SelfRoute { node } => {
                write!(f, "no path from a node to itself (node {node})")
            }
            RouteError::MissingLink {
                src,
                dst,
                choice,
                from,
                to,
            } => write!(
                f,
                "no link {from:?} -> {to:?} on route {src}->{dst} (choice {choice})"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// A constructed network: topology + link registry + all-pairs paths.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    nodes: u32,
    n_links: u32,
    link_index: BTreeMap<(Element, Element), LinkId>,
    link_ends: Vec<(Element, Element)>,
    paths: Vec<Path>, // row-major [src * nodes + dst]
}

impl Network {
    /// Builds the network and precomputes every route.
    ///
    /// # Panics
    ///
    /// Panics if the topology is degenerate (zero of any extent).
    pub fn new(topo: Topology) -> Self {
        // simaudit:allow(no-lib-panic): documented panicking wrapper over try_new for static topologies
        Self::try_new(topo).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the network and precomputes every route, returning a typed
    /// [`RouteError`] instead of panicking when the topology is degenerate
    /// or internally unroutable. Generated (chaos) topologies go through
    /// here so malformed descriptions are *rejected*, not aborted on.
    pub fn try_new(topo: Topology) -> Result<Self, RouteError> {
        let nodes = topo.nodes();
        if nodes < 2 {
            return Err(RouteError::DegenerateTopology { nodes });
        }
        let mut net = Network {
            topo,
            nodes,
            n_links: 0,
            link_index: BTreeMap::new(),
            link_ends: Vec::new(),
            paths: Vec::new(),
        };
        net.build_links();
        net.build_paths()?;
        Ok(net)
    }

    /// The topology this network instantiates.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of switches.
    #[must_use]
    pub fn switches(&self) -> u32 {
        self.topo.switches()
    }

    /// Number of directed links.
    pub fn links(&self) -> u32 {
        self.n_links
    }

    /// Endpoints of a link.
    pub fn link_ends(&self, l: LinkId) -> (Element, Element) {
        self.link_ends[l.0 as usize]
    }

    /// The edge switch of a node.
    #[must_use]
    pub fn edge_switch_of(&self, node: u32) -> SwitchId {
        self.topo.edge_switch_of(node)
    }

    /// The route from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (no network traversal) or either is out of
    /// range.
    pub fn path(&self, src: u32, dst: u32) -> &Path {
        // simaudit:allow(no-lib-panic): documented panicking wrapper over try_path for the hot path
        self.try_path(src, dst).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The route from `src` to `dst`, or a typed [`RouteError`] when the
    /// endpoints are invalid (out of range, or `src == dst`).
    pub fn try_path(&self, src: u32, dst: u32) -> Result<&Path, RouteError> {
        self.check_endpoints(src, dst)?;
        Ok(&self.paths[(src * self.nodes + dst) as usize])
    }

    fn check_endpoints(&self, src: u32, dst: u32) -> Result<(), RouteError> {
        for node in [src, dst] {
            if node >= self.nodes {
                return Err(RouteError::NodeOutOfRange {
                    node,
                    nodes: self.nodes,
                });
            }
        }
        if src == dst {
            return Err(RouteError::SelfRoute { node: src });
        }
        Ok(())
    }

    /// Looks up the directed link between two adjacent elements, if the
    /// topology has one.
    pub fn find_link(&self, from: Element, to: Element) -> Option<LinkId> {
        self.link_index.get(&(from, to)).copied()
    }

    /// The `choice`-th deterministic route from `src` to `dst` (ECMP-style:
    /// choice 0 is the primary route returned by [`Network::path`], higher
    /// choices rotate through the topology's alternatives — see
    /// [`Topology::route_choices`]). Returns `None` if the endpoints are
    /// invalid or the requested route would traverse a link the topology
    /// does not have — the latter cannot happen for
    /// `choice < route_choices()` on a well-formed network.
    pub fn path_with_choice(&self, src: u32, dst: u32, choice: u32) -> Option<Path> {
        self.try_path_with_choice(src, dst, choice).ok()
    }

    /// The `choice`-th deterministic route, with the failure reason
    /// preserved as a typed [`RouteError`] (invalid endpoints or a hop
    /// over a link the topology lacks).
    pub fn try_path_with_choice(
        &self,
        src: u32,
        dst: u32,
        choice: u32,
    ) -> Result<Path, RouteError> {
        self.check_endpoints(src, dst)?;
        let elems = self.route_elems(src, dst, choice);
        let mut hops = Vec::with_capacity(elems.len() - 1);
        for w in 0..elems.len() - 1 {
            let link = self
                .find_link(elems[w], elems[w + 1])
                .ok_or(RouteError::MissingLink {
                    src,
                    dst,
                    choice,
                    from: elems[w],
                    to: elems[w + 1],
                })?;
            hops.push(Hop {
                link,
                to: elems[w + 1],
            });
        }
        Ok(Path { hops })
    }

    /// Whether every hop of `path` survives `failures`: no dead link, and
    /// no dead switch at either end of any hop.
    pub fn path_is_usable(&self, path: &Path, failures: &FailureSet) -> bool {
        path.hops.iter().all(|h| {
            if failures.link_dead(h.link) {
                return false;
            }
            let (from, to) = self.link_ends(h.link);
            let alive = |e: Element| match e {
                Element::Switch(s) => !failures.switch_dead(s),
                Element::Nic(_) => true,
            };
            alive(from) && alive(to)
        })
    }

    /// The first route choice from `src` to `dst` that survives `failures`
    /// — deterministic next-choice failover. With an empty failure set this
    /// is exactly [`Network::path`]. Returns `None` when every choice is
    /// severed (e.g. the destination's edge switch is dead), in which case
    /// the caller must escalate rather than route.
    pub fn failover_path(&self, src: u32, dst: u32, failures: &FailureSet) -> Option<Path> {
        for choice in 0..self.topo.route_choices() {
            if let Some(p) = self.path_with_choice(src, dst, choice) {
                if self.path_is_usable(&p, failures) {
                    return Some(p);
                }
            }
        }
        None
    }

    /// The element sequence (NIC, switches, NIC) of the `choice`-th route.
    /// Choice 0 reproduces the primary deterministic route exactly.
    fn route_elems(&self, src: u32, dst: u32, choice: u32) -> Vec<Element> {
        let mut elems: Vec<Element> = vec![Element::Nic(src)];
        let s_src = self.topo.edge_switch_of(src);
        let s_dst = self.topo.edge_switch_of(dst);
        elems.push(Element::Switch(s_src));
        if s_src != s_dst {
            match self.topo {
                Topology::LeafSpine { racks, spines, .. } => {
                    // Deterministic destination-based spine selection,
                    // rotated by the failover choice.
                    let spine = racks + (dst % spines + choice) % spines;
                    elems.push(Element::Switch(SwitchId(spine)));
                    elems.push(Element::Switch(s_dst));
                }
                Topology::HyperX { dims, .. } => {
                    let coord = |s: SwitchId| -> [u32; 3] {
                        [
                            s.0 % dims[0],
                            (s.0 / dims[0]) % dims[1],
                            s.0 / (dims[0] * dims[1]),
                        ]
                    };
                    let idx = |c: [u32; 3]| SwitchId(c[0] + dims[0] * (c[1] + dims[1] * c[2]));
                    let mut cur = coord(s_src);
                    let target = coord(s_dst);
                    // Dimension-ordered; the failover choice permutes the
                    // correction order (choice 0 = x, y, z as before).
                    let order = DIM_ORDERS[choice as usize % DIM_ORDERS.len()];
                    for d in order {
                        if cur[d] != target[d] {
                            cur[d] = target[d];
                            elems.push(Element::Switch(idx(cur)));
                        }
                    }
                }
                Topology::Dragonfly {
                    switches_per_group,
                    global_links_per_pair,
                    ..
                } => {
                    let spg = switches_per_group;
                    let (g_src, _) = (s_src.0 / spg, s_src.0 % spg);
                    let (g_dst, _) = (s_dst.0 / spg, s_dst.0 % spg);
                    if g_src == g_dst {
                        elems.push(Element::Switch(s_dst));
                    } else {
                        // Deterministic global-link choice by destination,
                        // rotated by the failover choice.
                        let k = (dst % global_links_per_pair + choice) % global_links_per_pair;
                        let gw_a = gateway(g_src, g_dst, k, spg, global_links_per_pair);
                        let gw_b = gateway(g_dst, g_src, k, spg, global_links_per_pair);
                        let gw_a = SwitchId(g_src * spg + gw_a);
                        let gw_b = SwitchId(g_dst * spg + gw_b);
                        if gw_a != s_src {
                            elems.push(Element::Switch(gw_a));
                        }
                        elems.push(Element::Switch(gw_b));
                        if gw_b != s_dst {
                            elems.push(Element::Switch(s_dst));
                        }
                    }
                }
            }
        }
        elems.push(Element::Nic(dst));
        elems
    }

    fn link(&mut self, from: Element, to: Element) -> LinkId {
        *self.link_index.entry((from, to)).or_insert_with(|| {
            let id = LinkId(self.n_links);
            self.n_links += 1;
            self.link_ends.push((from, to));
            id
        })
    }

    fn build_links(&mut self) {
        // NIC <-> edge switch links for every node.
        for n in 0..self.nodes {
            let sw = Element::Switch(self.topo.edge_switch_of(n));
            self.link(Element::Nic(n), sw);
            self.link(sw, Element::Nic(n));
        }
        match self.topo {
            Topology::LeafSpine { racks, spines, .. } => {
                for r in 0..racks {
                    for s in 0..spines {
                        let tor = Element::Switch(SwitchId(r));
                        let spine = Element::Switch(SwitchId(racks + s));
                        self.link(tor, spine);
                        self.link(spine, tor);
                    }
                }
            }
            Topology::HyperX { dims, .. } => {
                let idx = |x: u32, y: u32, z: u32| SwitchId(x + dims[0] * (y + dims[1] * z));
                for z in 0..dims[2] {
                    for y in 0..dims[1] {
                        for x in 0..dims[0] {
                            let a = Element::Switch(idx(x, y, z));
                            for x2 in 0..dims[0] {
                                if x2 != x {
                                    self.link(a, Element::Switch(idx(x2, y, z)));
                                }
                            }
                            for y2 in 0..dims[1] {
                                if y2 != y {
                                    self.link(a, Element::Switch(idx(x, y2, z)));
                                }
                            }
                            for z2 in 0..dims[2] {
                                if z2 != z {
                                    self.link(a, Element::Switch(idx(x, y, z2)));
                                }
                            }
                        }
                    }
                }
            }
            Topology::Dragonfly {
                groups,
                switches_per_group,
                global_links_per_pair,
                ..
            } => {
                let spg = switches_per_group;
                let sid = |g: u32, s: u32| SwitchId(g * spg + s);
                // Intra-group full mesh.
                for g in 0..groups {
                    for a in 0..spg {
                        for b in 0..spg {
                            if a != b {
                                self.link(Element::Switch(sid(g, a)), Element::Switch(sid(g, b)));
                            }
                        }
                    }
                }
                // Global links.
                for g in 0..groups {
                    for h in 0..groups {
                        if g == h {
                            continue;
                        }
                        for k in 0..global_links_per_pair {
                            let a = sid(g, gateway(g, h, k, spg, global_links_per_pair));
                            let b = sid(h, gateway(h, g, k, spg, global_links_per_pair));
                            self.link(Element::Switch(a), Element::Switch(b));
                        }
                    }
                }
            }
        }
    }

    fn build_paths(&mut self) -> Result<(), RouteError> {
        let nodes = self.nodes;
        let mut paths = Vec::with_capacity((nodes * nodes) as usize);
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst {
                    paths.push(Path::default());
                    continue;
                }
                // All links should already exist from `build_links`; a
                // hole is an unroutable topology description, surfaced
                // as a typed error at construction time.
                paths.push(self.try_path_with_choice(src, dst, 0)?);
            }
        }
        self.paths = paths;
        Ok(())
    }
}

/// Which switch of group `g` holds global link `k` toward group `h`.
fn gateway(g: u32, h: u32, k: u32, spg: u32, lpp: u32) -> u32 {
    (h * lpp + k + g) % spg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_topos() -> Vec<Topology> {
        vec![
            Topology::leaf_spine_128(),
            Topology::hyperx_128(),
            Topology::dragonfly_128(),
        ]
    }

    #[test]
    fn paper_topologies_have_128_nodes() {
        for t in all_topos() {
            assert_eq!(t.nodes(), 128, "{t:?}");
        }
    }

    #[test]
    fn every_pair_has_a_valid_path() {
        for t in all_topos() {
            let net = Network::new(t);
            for src in 0..net.nodes() {
                for dst in 0..net.nodes() {
                    if src == dst {
                        continue;
                    }
                    let p = net.path(src, dst);
                    // Starts by leaving src's NIC, ends at dst's NIC.
                    let (from, _) = net.link_ends(p.hops[0].link);
                    assert_eq!(from, Element::Nic(src), "{t:?} {src}->{dst}");
                    assert_eq!(
                        p.hops.last().unwrap().to,
                        Element::Nic(dst),
                        "{t:?} {src}->{dst}"
                    );
                    // Hops are contiguous.
                    let mut cur = Element::Nic(src);
                    for h in &p.hops {
                        let (a, b) = net.link_ends(h.link);
                        assert_eq!(a, cur);
                        assert_eq!(b, h.to);
                        cur = b;
                    }
                }
            }
        }
    }

    #[test]
    fn leaf_spine_hop_counts_match_paper_rtts() {
        let net = Network::new(Topology::leaf_spine_128());
        // Intra-rack: NIC -> ToR -> NIC (1 switch).
        assert_eq!(net.path(0, 15).switches().count(), 1);
        // Inter-rack: NIC -> ToR -> spine -> ToR -> NIC (3 switches).
        assert_eq!(net.path(0, 16).switches().count(), 3);
    }

    #[test]
    fn leaf_spine_first_and_last_switch_are_edge() {
        let net = Network::new(Topology::leaf_spine_128());
        let p = net.path(3, 77);
        let sws: Vec<_> = p.switches().collect();
        assert!(net.topology().is_edge_switch(sws[0]));
        assert!(net.topology().is_edge_switch(*sws.last().unwrap()));
        assert!(!net.topology().is_edge_switch(sws[1])); // spine
    }

    #[test]
    fn hyperx_is_dimension_ordered() {
        let net = Network::new(Topology::hyperx_128());
        // Farthest corner-to-corner: 3 dimension corrections max.
        let p = net.path(0, 127);
        assert!(p.switches().count() <= 4, "{}", p.switches().count());
    }

    #[test]
    fn hyperx_has_higher_diameter_than_leaf_spine() {
        let ls = Network::new(Topology::leaf_spine_128());
        let hx = Network::new(Topology::hyperx_128());
        let max_hops = |net: &Network| {
            let mut m = 0;
            for s in 0..net.nodes() {
                for d in 0..net.nodes() {
                    if s != d {
                        m = m.max(net.path(s, d).hops.len());
                    }
                }
            }
            m
        };
        assert!(max_hops(&hx) > max_hops(&ls));
    }

    #[test]
    fn dragonfly_minimal_routing_bounds() {
        let net = Network::new(Topology::dragonfly_128());
        for src in 0..net.nodes() {
            for dst in 0..net.nodes() {
                if src != dst {
                    // At most: src sw, gw_a, gw_b, dst sw = 4 switches.
                    assert!(net.path(src, dst).switches().count() <= 4);
                }
            }
        }
    }

    #[test]
    fn edge_switch_grouping() {
        let t = Topology::leaf_spine_128();
        assert_eq!(t.edge_switch_of(0), t.edge_switch_of(15));
        assert_ne!(t.edge_switch_of(0), t.edge_switch_of(16));
        let h = Topology::hyperx_128();
        assert_eq!(h.edge_switch_of(0), h.edge_switch_of(3));
        assert_ne!(h.edge_switch_of(0), h.edge_switch_of(4));
    }

    #[test]
    fn routes_are_deterministic() {
        let a = Network::new(Topology::dragonfly_128());
        let b = Network::new(Topology::dragonfly_128());
        assert_eq!(a.path(5, 99), b.path(5, 99));
    }

    #[test]
    #[should_panic(expected = "no path from a node to itself")]
    fn self_path_panics() {
        let net = Network::new(Topology::leaf_spine_128());
        net.path(3, 3);
    }

    #[test]
    fn choice_zero_matches_primary_route() {
        for t in all_topos() {
            let net = Network::new(t);
            for (src, dst) in [(0, 17), (5, 99), (127, 1), (3, 4)] {
                assert_eq!(
                    net.path_with_choice(src, dst, 0).unwrap(),
                    *net.path(src, dst),
                    "{t:?} {src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn every_choice_yields_a_contiguous_route() {
        for t in all_topos() {
            let net = Network::new(t);
            for src in [0, 40] {
                for dst in [17, 127] {
                    if src == dst {
                        continue;
                    }
                    for c in 0..t.route_choices() {
                        let p = net
                            .path_with_choice(src, dst, c)
                            .unwrap_or_else(|| panic!("{t:?} {src}->{dst} choice {c}"));
                        let mut cur = Element::Nic(src);
                        for h in &p.hops {
                            let (a, b) = net.link_ends(h.link);
                            assert_eq!(a, cur);
                            assert_eq!(b, h.to);
                            cur = b;
                        }
                        assert_eq!(cur, Element::Nic(dst));
                    }
                }
            }
        }
    }

    #[test]
    fn failover_avoids_dead_spine_deterministically() {
        let net = Network::new(Topology::leaf_spine_128());
        // Primary route 0 -> 16 goes through spine 8 + 16 % 16 = 8.
        let primary = net.path(0, 16);
        let spine = primary.switches().nth(1).unwrap();
        assert!(!net.topology().is_edge_switch(spine));

        let mut down = FailureSet::new();
        down.fail_switch(spine);
        let p = net.failover_path(0, 16, &down).unwrap();
        assert!(p.switches().all(|s| s != spine));
        // Same hop count: leaf-spine alternatives are equal length.
        assert_eq!(p.hops.len(), primary.hops.len());
        // Deterministic: repeated queries agree.
        assert_eq!(p, net.failover_path(0, 16, &down).unwrap());
        // Repair restores the primary route.
        down.repair_switch(spine);
        assert_eq!(net.failover_path(0, 16, &down).unwrap(), *primary);
    }

    #[test]
    fn failover_avoids_dead_link() {
        for t in all_topos() {
            let net = Network::new(t);
            let primary = net.path(0, 127).clone();
            let mut down = FailureSet::new();
            // Kill the first switch-to-switch hop of the primary route.
            let cut = primary.hops[1].link;
            down.fail_link(cut);
            let p = net
                .failover_path(0, 127, &down)
                .unwrap_or_else(|| panic!("{t:?}"));
            assert!(p.hops.iter().all(|h| h.link != cut), "{t:?}");
            assert!(net.path_is_usable(&p, &down), "{t:?}");
        }
    }

    #[test]
    fn dead_edge_switch_severs_destination() {
        let net = Network::new(Topology::leaf_spine_128());
        let mut down = FailureSet::new();
        down.fail_switch(net.edge_switch_of(16));
        assert!(net.failover_path(0, 16, &down).is_none());
        // Other racks remain reachable.
        assert!(net.failover_path(0, 32, &down).is_some());
    }

    #[test]
    fn all_spines_dead_severs_inter_rack_only() {
        let net = Network::new(Topology::leaf_spine_128());
        let mut down = FailureSet::new();
        for s in 8..24 {
            down.fail_switch(SwitchId(s));
        }
        assert!(net.failover_path(0, 16, &down).is_none());
        // Intra-rack traffic never touches a spine.
        assert!(net.failover_path(0, 1, &down).is_some());
    }
}
