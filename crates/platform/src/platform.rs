//! The resolved runtime platform.
//!
//! [`Platform::build`] validates a [`PlatformSpec`], assigns typed identifiers
//! to sites and links, folds each site's hosts into its nominal speed,
//! constructs the WAN graph (adding the main server and, when no links are
//! configured, a default star topology), adds per-site LAN links, and
//! precomputes lowest-latency routes between every pair of endpoints. The
//! simulation core only ever works with this resolved form.
//!
//! Routing grows one heap-Dijkstra shortest-path tree per source endpoint
//! (see [`topology`](crate::topology)) and writes that source's
//! routes straight into one flat table: every route's links back to back in
//! one `LinkId` arena, and per ordered pair, in row-major order, a `u32`
//! arena offset (a route is the arena between its offset and the next) and
//! the route's latency and bottleneck as `f64`s. A build allocates a fixed
//! number of buffers plus the arena's doublings, not one per route. The unit
//! tests twin every route against the test-only per-pair array-scan
//! Dijkstra, link for link and bit for bit.

use std::collections::HashMap;

use cgsim_des::define_id;

use crate::error::PlatformError;
use crate::spec::{gbps_to_bytes_per_sec, ms_to_secs, LinkSpec, PlatformSpec, Tier, MAIN_SERVER};
use crate::topology::{EdgeProps, Graph, PathTree};

define_id!(
    /// Identifier of a computing site.
    SiteId,
    "site"
);
define_id!(
    /// Identifier of a network link (WAN or site LAN).
    LinkId,
    "link"
);

/// A routable endpoint: a site or the central main server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The central main server (job broker / data source).
    MainServer,
    /// A computing site.
    Site(SiteId),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::MainServer => write!(f, "main-server"),
            NodeId::Site(s) => write!(f, "{s}"),
        }
    }
}

/// A computing site (resolved form of `SiteSpec`).
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    /// Site identifier.
    pub id: SiteId,
    /// Site name.
    pub name: String,
    /// WLCG tier.
    pub tier: Tier,
    /// Country / region label.
    pub country: String,
    /// Core-weighted average of the hosts' nominal per-core speeds (0 for a
    /// site without cores).
    pub(crate) nominal_speed: f64,
    /// Total core count.
    pub total_cores: u64,
    /// Storage capacity in TB.
    pub storage_tb: f64,
    /// LAN link of this site (every transfer that terminates here crosses it).
    pub lan_link: LinkId,
    /// Calibration multiplier applied to host speeds.
    pub speed_multiplier: f64,
}

/// A network link (resolved form of `LinkSpec`, plus generated LAN links).
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Link identifier.
    pub id: LinkId,
    /// Link name.
    pub name: String,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// True for automatically generated site-internal LAN links.
    pub is_lan: bool,
}

/// A resolved route between two endpoints: a view into the platform's route
/// table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route<'a> {
    /// Links traversed, in order.
    pub links: &'a [LinkId],
    /// Total one-way latency in seconds.
    pub latency_s: f64,
    /// Nominal bottleneck bandwidth in bytes/s (minimum over links).
    pub bottleneck_bps: f64,
}

/// Every ordered endpoint pair's route, flat. Pair `(from, to)` of
/// [`endpoint_index`]es is `p = from * endpoints + to` (row-major, the order
/// the routes are written).
#[derive(Debug, Clone)]
struct RouteTable {
    endpoints: usize,
    /// The links of every route, back to back in pair order.
    links: Vec<LinkId>,
    /// Arena offset of each pair's first link, plus the arena's end, so pair
    /// `p` is `links[starts[p]..starts[p + 1]]`: 0, then the arena's length
    /// after each route.
    starts: Vec<u32>,
    latency_s: Vec<f64>,
    bottleneck_bps: Vec<f64>,
}

/// The fewest bytes a route table between `endpoints` endpoints holds: per
/// ordered pair a `u32` offset and two `f64`s, plus the arena at its floor —
/// a route between two sites crosses at least three links (both LANs and a
/// WAN link), one between a site and the main server at least two. `None`
/// when that does not fit in a `usize`.
fn table_bytes(endpoints: usize) -> Option<usize> {
    let pairs = endpoints.checked_mul(endpoints)?;
    let sites = endpoints.saturating_sub(1);
    let links = sites
        .checked_mul(sites.saturating_sub(1))?
        .checked_mul(3)?
        .checked_add(sites.checked_mul(4)?)?;
    pairs
        .checked_mul(size_of::<u32>() + 2 * size_of::<f64>())?
        .checked_add(links.checked_mul(size_of::<LinkId>())?)
}

impl RouteTable {
    /// An empty table with room for the routes between `endpoints`
    /// endpoints, every ordered pair. A table the allocator refuses — or
    /// whose size does not even fit in a `usize` — is an error, not an abort.
    fn with_capacity(endpoints: usize) -> Result<Self, PlatformError> {
        let too_large = || PlatformError::TooLarge { endpoints };
        // Each buffer below is smaller than the whole table, so the
        // allocator could grant them one by one where memory cannot hold
        // them all. Ask for the whole table in one request first, untouched
        // and handed back at once, so such a table is refused here.
        let bytes = table_bytes(endpoints).ok_or_else(too_large)?;
        let mut probe: Vec<u8> = Vec::new();
        let granted = probe.try_reserve_exact(bytes).is_ok();
        // The probe is never read; keep the request from being elided.
        drop(std::hint::black_box(probe));
        if !granted {
            return Err(too_large());
        }
        let pairs = endpoints * endpoints;
        let mut table = RouteTable {
            endpoints,
            links: Vec::new(),
            starts: Vec::new(),
            latency_s: Vec::new(),
            bottleneck_bps: Vec::new(),
        };
        let reserved = table.starts.try_reserve_exact(pairs + 1).is_ok()
            && table.latency_s.try_reserve_exact(pairs).is_ok()
            && table.bottleneck_bps.try_reserve_exact(pairs).is_ok();
        if !reserved {
            return Err(too_large());
        }
        table.starts.push(0);
        Ok(table)
    }

    /// Appends the routes from `from` — the next row — to every endpoint,
    /// read off `tree`, the shortest-path tree grown from `from`. Fails on
    /// the first destination the tree does not reach, and with `TooLarge`
    /// when the arena cannot grow.
    fn push_row(
        &mut self,
        resolved: &Resolved,
        from: NodeId,
        tree: &PathTree,
    ) -> Result<(), PlatformError> {
        for to in resolved.endpoints() {
            let column = endpoint_index(to);
            if !tree.reaches(column) {
                return Err(PlatformError::Unreachable {
                    from: from.to_string(),
                    to: to.to_string(),
                });
            }
            // A route is at most every WAN edge of a simple path plus two
            // LAN links: `endpoints + 1` links.
            self.links
                .try_reserve(self.endpoints + 1)
                .map_err(|_| self.too_large())?;
            let start = self.links.len();
            let (latency, bottleneck) = if from == to {
                (0.0, f64::INFINITY)
            } else {
                // Transfers terminating (or originating) at a site also
                // cross that site's LAN link.
                if let NodeId::Site(s) = from {
                    self.links.push(resolved.sites[s.index()].lan_link);
                }
                let wan = self.links.len();
                let edges = tree.edges_back(column);
                self.links.extend(edges.map(|e| resolved.edge_links[e]));
                self.links[wan..].reverse();
                if let NodeId::Site(s) = to {
                    self.links.push(resolved.sites[s.index()].lan_link);
                }
                let route = &self.links[start..];
                let latency: f64 = route
                    .iter()
                    .map(|l| resolved.links[l.index()].latency_s)
                    .sum();
                let bottleneck = route
                    .iter()
                    .map(|l| resolved.links[l.index()].bandwidth_bps)
                    .fold(f64::INFINITY, f64::min);
                (latency, bottleneck)
            };
            let end = u32::try_from(self.links.len()).map_err(|_| self.too_large())?;
            self.starts.push(end);
            self.latency_s.push(latency);
            self.bottleneck_bps.push(bottleneck);
        }
        Ok(())
    }

    /// The table outgrew what the allocator grants or a `u32` offset holds.
    fn too_large(&self) -> PlatformError {
        PlatformError::TooLarge {
            endpoints: self.endpoints,
        }
    }

    fn route(&self, from: usize, to: usize) -> Route<'_> {
        let pair = from * self.endpoints + to;
        let links = self.starts[pair] as usize..self.starts[pair + 1] as usize;
        Route {
            links: &self.links[links],
            latency_s: self.latency_s[pair],
            bottleneck_bps: self.bottleneck_bps[pair],
        }
    }
}

/// The resolved, validated platform.
#[derive(Debug, Clone)]
pub struct Platform {
    name: String,
    sites: Vec<Site>,
    links: Vec<Link>,
    site_names: HashMap<String, SiteId>,
    routes: RouteTable,
}

/// Dense index of an endpoint — its WAN-graph node and its row/column in the
/// route table: the main server first, then the sites by id.
fn endpoint_index(node: NodeId) -> usize {
    match node {
        NodeId::MainServer => 0,
        NodeId::Site(site) => site.index() + 1,
    }
}

/// A specification resolved up to, but not including, routing.
struct Resolved {
    sites: Vec<Site>,
    links: Vec<Link>,
    site_names: HashMap<String, SiteId>,
    /// The WAN graph; node [`endpoint_index`]`(e)` is endpoint `e`.
    graph: Graph,
    /// Graph edge index -> WAN link.
    edge_links: Vec<LinkId>,
}

impl Resolved {
    /// Every endpoint, in [`endpoint_index`] order.
    fn endpoints(&self) -> impl Iterator<Item = NodeId> + Clone + '_ {
        std::iter::once(NodeId::MainServer).chain(self.sites.iter().map(|s| NodeId::Site(s.id)))
    }
}

impl Platform {
    /// Builds a platform from its specification.
    ///
    /// Routing grows one binary-heap Dijkstra tree per source endpoint —
    /// O((V + E) log V) each, O(V (V + E) log V) in all for V = sites + 1
    /// endpoints and E WAN links — and writes each tree's V routes into the
    /// flat route table, so [`route`](Self::route) is an index, not a hash
    /// probe or a search. Every route is link for link and bit for bit the
    /// one a per-pair Dijkstra yields. The table's least size is asked of
    /// the allocator in one request and every V²-sized buffer is reserved
    /// through `try_reserve*`: a table the allocator refuses is
    /// [`PlatformError::TooLarge`], and the first endpoint pair (source
    /// major) without a path is [`PlatformError::Unreachable`].
    pub fn build(spec: &PlatformSpec) -> Result<Self, PlatformError> {
        let resolved = Self::resolve(spec)?;
        let mut routes = RouteTable::with_capacity(resolved.sites.len() + 1)?;
        let mut tree = PathTree::default();
        for from in resolved.endpoints() {
            resolved.graph.grow_tree(endpoint_index(from), &mut tree);
            routes.push_row(&resolved, from, &tree)?;
        }
        Ok(Platform {
            name: spec.name.clone(),
            sites: resolved.sites,
            links: resolved.links,
            site_names: resolved.site_names,
            routes,
        })
    }

    /// Validates `spec` and resolves its sites, links and WAN graph.
    fn resolve(spec: &PlatformSpec) -> Result<Resolved, PlatformError> {
        spec.validate()?;

        let mut sites = Vec::with_capacity(spec.sites.len());
        let mut links = Vec::new();
        let mut site_names = HashMap::new();

        // LAN links first (one per site).
        for (i, s) in spec.sites.iter().enumerate() {
            let site_id = SiteId::new(i);
            let lan_link = LinkId::new(links.len());
            links.push(Link {
                id: lan_link,
                name: format!("{}-lan", s.name),
                bandwidth_bps: gbps_to_bytes_per_sec(s.internal_bandwidth_gbps),
                latency_s: ms_to_secs(s.internal_latency_ms),
                is_lan: true,
            });
            let mut weighted = 0.0;
            let mut cores = 0.0;
            for h in &s.hosts {
                weighted += h.speed_per_core * h.cores as f64;
                cores += h.cores as f64;
            }
            sites.push(Site {
                id: site_id,
                name: s.name.clone(),
                tier: s.tier,
                country: s.country.clone(),
                nominal_speed: if cores == 0.0 { 0.0 } else { weighted / cores },
                total_cores: s.total_cores(),
                storage_tb: s.storage_tb,
                lan_link,
                speed_multiplier: s.speed_multiplier,
            });
            site_names.insert(s.name.clone(), site_id);
        }

        // Build the WAN graph: node 0 = main server, node i+1 = site i
        // (`endpoint_index`).
        let mut graph = Graph::new();
        for _ in 0..=sites.len() {
            graph.add_node();
        }
        // edge index -> LinkId
        let mut edge_links: Vec<LinkId> = Vec::new();

        let default_star: Vec<LinkSpec>;
        let wan_links = if spec.network.links.is_empty() {
            // Default star topology: every site connected to the main server.
            default_star = spec
                .sites
                .iter()
                .map(|s| LinkSpec::new(s.name.clone(), MAIN_SERVER, 10.0, 20.0))
                .collect();
            &default_star
        } else {
            &spec.network.links
        };

        for l in wan_links {
            let link_id = LinkId::new(links.len());
            links.push(Link {
                id: link_id,
                name: if l.name.is_empty() {
                    format!("{}--{}", l.from, l.to)
                } else {
                    l.name.clone()
                },
                bandwidth_bps: gbps_to_bytes_per_sec(l.bandwidth_gbps),
                latency_s: ms_to_secs(l.latency_ms),
                is_lan: false,
            });
            let node_of = |endpoint: &str| -> Result<usize, PlatformError> {
                if endpoint == MAIN_SERVER {
                    Ok(endpoint_index(NodeId::MainServer))
                } else {
                    site_names
                        .get(endpoint)
                        .map(|&id| endpoint_index(NodeId::Site(id)))
                        .ok_or_else(|| PlatformError::UnknownEndpoint(endpoint.to_string()))
                }
            };
            let a = node_of(&l.from)?;
            let b = node_of(&l.to)?;
            graph.add_edge(
                a,
                b,
                EdgeProps {
                    latency_s: ms_to_secs(l.latency_ms),
                    bandwidth_bps: gbps_to_bytes_per_sec(l.bandwidth_gbps),
                },
            );
            edge_links.push(link_id);
        }

        Ok(Resolved {
            sites,
            links,
            site_names,
            graph,
            edge_links,
        })
    }

    /// Platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// A site by identifier.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.index()]
    }

    /// Looks a site up by name.
    pub fn site_by_name(&self, name: &str) -> Option<SiteId> {
        self.site_names.get(name).copied()
    }

    /// All links (WAN + LAN).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// A link by identifier.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The precomputed route between two endpoints: O(1) and
    /// allocation-free, a view of one pair's table entries and a slice of
    /// the link arena.
    ///
    /// # Panics
    /// If either endpoint is not part of this platform.
    pub fn route(&self, from: NodeId, to: NodeId) -> Route<'_> {
        let endpoints = self.routes.endpoints;
        let (from, to) = (endpoint_index(from), endpoint_index(to));
        assert!(
            from < endpoints && to < endpoints,
            "route endpoint outside the platform"
        );
        self.routes.route(from, to)
    }

    /// Effective per-core speed of a site: the core-weighted average of its
    /// hosts' nominal speeds times the site calibration multiplier. This is
    /// the quantity the calibration experiments tune (paper §4.2 identifies
    /// CPU core processing speed as the dominant calibration parameter).
    pub fn effective_speed(&self, site: SiteId) -> f64 {
        let s = &self.sites[site.index()];
        s.nominal_speed * s.speed_multiplier
    }

    /// Current calibration multiplier of a site.
    pub fn speed_multiplier(&self, site: SiteId) -> f64 {
        self.sites[site.index()].speed_multiplier
    }

    /// Sets the calibration multiplier of a site.
    pub fn set_speed_multiplier(&mut self, site: SiteId, multiplier: f64) {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "speed multiplier must be positive"
        );
        self.sites[site.index()].speed_multiplier = multiplier;
    }

    /// Total number of cores across the platform.
    pub fn total_cores(&self) -> u64 {
        self.sites.iter().map(|s| s.total_cores).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{HostSpec, SiteSpec};
    use crate::topology::Path;

    fn three_site_spec() -> PlatformSpec {
        PlatformSpec::new("test")
            .with_site(SiteSpec::uniform("CERN", Tier::Tier0, 2000, 12.0))
            .with_site(SiteSpec::uniform("BNL", Tier::Tier1, 1000, 10.0))
            .with_site(SiteSpec::uniform("DESY-ZN", Tier::Tier2, 400, 8.0))
            .with_link(LinkSpec::new("CERN", MAIN_SERVER, 100.0, 5.0))
            .with_link(LinkSpec::new("BNL", MAIN_SERVER, 40.0, 45.0))
            .with_link(LinkSpec::new("DESY-ZN", MAIN_SERVER, 20.0, 15.0))
            .with_link(LinkSpec::new("CERN", "DESY-ZN", 50.0, 8.0))
    }

    #[test]
    fn a_route_table_too_large_to_address_is_an_error() {
        // 2^62 pairs of 20 B overflow the byte size, and (2^32)² pairs
        // overflow the count: both are refused before anything is allocated.
        for endpoints in [1 << 31, 1 << 32] {
            assert_eq!(table_bytes(endpoints), None);
            assert_eq!(
                RouteTable::with_capacity(endpoints).unwrap_err(),
                PlatformError::TooLarge { endpoints }
            );
        }
        // Three endpoints: 9 pairs of 20 B, plus two site-to-site routes of
        // three links or more and four routes between a site and the main
        // server of two or more, 14 links of 8 B.
        assert_eq!(table_bytes(3), Some(9 * 20 + 14 * 8));
        assert_eq!(table_bytes(1), Some(20));
        assert_eq!(table_bytes(0), Some(0));
        // 20,000 sites ask for 17.6 GB in the one request, 44 B per pair.
        assert_eq!(table_bytes(20_001), Some(17_600_960_020));
        let table = RouteTable::with_capacity(3).unwrap();
        assert_eq!(table.starts, [0]);
        assert_eq!(table.starts.capacity(), 10);
        assert_eq!(table.latency_s.capacity(), 9);
        assert_eq!(table.bottleneck_bps.capacity(), 9);
    }

    #[test]
    fn build_resolves_sites_hosts_links() {
        let platform = Platform::build(&three_site_spec()).unwrap();
        assert_eq!(platform.site_count(), 3);
        // 3 LAN + 4 WAN links.
        assert_eq!(platform.links().len(), 7);
        assert_eq!(platform.total_cores(), 3400);
        let bnl = platform.site_by_name("BNL").unwrap();
        assert_eq!(platform.site(bnl).tier, Tier::Tier1);
        assert_eq!(platform.site(bnl).total_cores, 1000);
        assert!(platform.site_by_name("NOPE").is_none());
    }

    #[test]
    fn routes_include_lan_links() {
        let platform = Platform::build(&three_site_spec()).unwrap();
        let cern = platform.site_by_name("CERN").unwrap();
        let route = platform.route(NodeId::MainServer, NodeId::Site(cern));
        // main server -> CERN WAN link + CERN LAN link.
        assert_eq!(route.links.len(), 2);
        assert!(route.links.iter().any(|&l| platform.link(l).is_lan));
        assert!(route.latency_s > 0.0);
        assert!(route.bottleneck_bps > 0.0);
    }

    #[test]
    fn site_to_site_prefers_direct_link() {
        let platform = Platform::build(&three_site_spec()).unwrap();
        let cern = platform.site_by_name("CERN").unwrap();
        let desy = platform.site_by_name("DESY-ZN").unwrap();
        let route = platform.route(NodeId::Site(cern), NodeId::Site(desy));
        // CERN LAN + direct CERN--DESY link + DESY LAN.
        assert_eq!(route.links.len(), 3);
        let wan_names: Vec<_> = route
            .links
            .iter()
            .filter(|&&l| !platform.link(l).is_lan)
            .map(|&l| platform.link(l).name.clone())
            .collect();
        assert_eq!(wan_names, vec!["CERN--DESY-ZN".to_string()]);
    }

    #[test]
    fn self_route_is_empty() {
        let platform = Platform::build(&three_site_spec()).unwrap();
        let cern = platform.site_by_name("CERN").unwrap();
        let route = platform.route(NodeId::Site(cern), NodeId::Site(cern));
        assert!(route.links.is_empty());
        assert_eq!(route.latency_s, 0.0);
    }

    #[test]
    fn default_star_topology_when_no_links() {
        let spec = PlatformSpec::new("star")
            .with_site(SiteSpec::uniform("A", Tier::Tier2, 100, 10.0))
            .with_site(SiteSpec::uniform("B", Tier::Tier2, 100, 10.0));
        let platform = Platform::build(&spec).unwrap();
        let a = platform.site_by_name("A").unwrap();
        let b = platform.site_by_name("B").unwrap();
        // A -> B goes through the main server: A LAN + A--server + server--B + B LAN.
        let route = platform.route(NodeId::Site(a), NodeId::Site(b));
        assert_eq!(route.links.len(), 4);
    }

    #[test]
    fn effective_speed_uses_multiplier() {
        let mut platform = Platform::build(&three_site_spec()).unwrap();
        let bnl = platform.site_by_name("BNL").unwrap();
        assert!((platform.effective_speed(bnl) - 10.0).abs() < 1e-12);
        platform.set_speed_multiplier(bnl, 0.5);
        assert!((platform.effective_speed(bnl) - 5.0).abs() < 1e-12);
        assert_eq!(platform.speed_multiplier(bnl), 0.5);
    }

    #[test]
    fn disconnected_platform_is_rejected() {
        // Explicit network that leaves site B unconnected.
        let spec = PlatformSpec::new("broken")
            .with_site(SiteSpec::uniform("A", Tier::Tier2, 100, 10.0))
            .with_site(SiteSpec::uniform("B", Tier::Tier2, 100, 10.0))
            .with_site(SiteSpec::uniform("C", Tier::Tier2, 100, 10.0))
            .with_link(LinkSpec::new("A", MAIN_SERVER, 10.0, 10.0))
            .with_link(LinkSpec::new("B", "C", 10.0, 10.0));
        // The first pair without a path, sources major and destinations
        // minor in endpoint order, names the error.
        let err = Platform::build(&spec).unwrap_err();
        assert_eq!(
            err,
            PlatformError::Unreachable {
                from: "main-server".to_string(),
                to: "site#1".to_string(),
            }
        );
        assert_eq!(err.to_string(), "no route between main-server and site#1");
    }

    /// The links, latency and bottleneck of the route `from -> to` that
    /// follows WAN path `path`, one owned route per pair.
    fn route_along(
        resolved: &Resolved,
        from: NodeId,
        to: NodeId,
        path: &Path,
    ) -> (Vec<LinkId>, f64, f64) {
        if from == to {
            return (Vec::new(), 0.0, f64::INFINITY);
        }
        let mut route_links: Vec<LinkId> = Vec::with_capacity(path.edges.len() + 2);
        if let NodeId::Site(s) = from {
            route_links.push(resolved.sites[s.index()].lan_link);
        }
        route_links.extend(path.edges.iter().map(|&e| resolved.edge_links[e]));
        if let NodeId::Site(s) = to {
            route_links.push(resolved.sites[s.index()].lan_link);
        }
        let latency: f64 = route_links
            .iter()
            .map(|l| resolved.links[l.index()].latency_s)
            .sum();
        let bottleneck = route_links
            .iter()
            .map(|l| resolved.links[l.index()].bandwidth_bps)
            .fold(f64::INFINITY, f64::min);
        (route_links, latency, bottleneck)
    }

    /// The route table's reference twin: one early-exit array-scan Dijkstra
    /// per endpoint pair. Every route must match it link for link
    /// and bit for bit (same tie-breaks, same summation order), and the
    /// routes must tile the link arena with at least the links
    /// [`table_bytes`] counts on.
    fn assert_routes_match_per_pair_dijkstra(spec: &PlatformSpec) {
        let platform = Platform::build(spec).unwrap();
        let resolved = Platform::resolve(spec).unwrap();
        for from in resolved.endpoints() {
            for to in resolved.endpoints() {
                let path = resolved
                    .graph
                    .shortest_path(endpoint_index(from), endpoint_index(to))
                    .unwrap();
                let (links, latency, bottleneck) = route_along(&resolved, from, to, &path);
                let route = platform.route(from, to);
                assert_eq!(route.links, links, "{from} -> {to}");
                assert_eq!(route.latency_s.to_bits(), latency.to_bits());
                assert_eq!(route.bottleneck_bps.to_bits(), bottleneck.to_bits());
            }
        }
        let endpoints = resolved.sites.len() + 1;
        let arena: usize = (0..endpoints * endpoints)
            .map(|pair| {
                let (from, to) = (pair / endpoints, pair % endpoints);
                platform.routes.route(from, to).links.len()
            })
            .sum();
        assert_eq!(arena, platform.routes.links.len(), "routes tile the arena");
        let sites = resolved.sites.len();
        assert!(
            arena >= 3 * sites * (sites - 1) + 4 * sites,
            "the floor table_bytes counts"
        );
    }

    #[test]
    fn route_table_equals_per_pair_shortest_paths() {
        use crate::presets::{example_platform, single_site_platform, wlcg_platform};
        assert_routes_match_per_pair_dijkstra(&wlcg_platform(200, 42));
        assert_routes_match_per_pair_dijkstra(&wlcg_platform(12, 42));
        assert_routes_match_per_pair_dijkstra(&example_platform());
        assert_routes_match_per_pair_dijkstra(&single_site_platform(40, 10.0));
        assert_routes_match_per_pair_dijkstra(&three_site_spec());
        // A mesh where every WAN link has the same latency: equal-cost
        // routes everywhere, so only identical tie-breaking passes.
        let names = ["A", "B", "C", "D", "E", "F"];
        let mut mesh = PlatformSpec::new("mesh");
        for name in names {
            mesh = mesh.with_site(SiteSpec::uniform(name, Tier::Tier2, 100, 10.0));
        }
        mesh = mesh.with_link(LinkSpec::new("A", MAIN_SERVER, 10.0, 10.0));
        for i in 0..names.len() {
            for step in [1, 2] {
                let (a, b) = (names[i], names[(i + step) % names.len()]);
                mesh = mesh.with_link(LinkSpec::new(a, b, 10.0 * step as f64, 10.0));
            }
        }
        assert_routes_match_per_pair_dijkstra(&mesh);
    }

    #[test]
    #[should_panic(expected = "outside the platform")]
    fn route_to_a_foreign_site_panics() {
        let platform = Platform::build(&three_site_spec()).unwrap();
        platform.route(NodeId::MainServer, NodeId::Site(SiteId::new(3)));
    }

    #[test]
    fn effective_speed_weights_hosts_by_cores() {
        let mut spec = three_site_spec();
        let hosts = &mut spec.sites[1].hosts;
        hosts[0] = HostSpec::new("old", 100, 7.3);
        hosts.push(HostSpec::new("new", 300, 11.9));
        let mut platform = Platform::build(&spec).unwrap();
        let bnl = platform.site_by_name("BNL").unwrap();
        let nominal: f64 = (7.3 * 100.0 + 11.9 * 300.0) / 400.0;
        assert_eq!(
            platform.site(bnl).nominal_speed.to_bits(),
            nominal.to_bits()
        );
        platform.set_speed_multiplier(bnl, 0.7);
        assert_eq!(
            platform.effective_speed(bnl).to_bits(),
            (nominal * 0.7).to_bits()
        );
    }

    #[test]
    #[should_panic]
    fn negative_multiplier_is_rejected() {
        let mut platform = Platform::build(&three_site_spec()).unwrap();
        let cern = platform.site_by_name("CERN").unwrap();
        platform.set_speed_multiplier(cern, -1.0);
    }
}
