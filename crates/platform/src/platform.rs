//! The resolved runtime platform.
//!
//! [`Platform::build`] validates a [`PlatformSpec`], assigns typed identifiers
//! to sites and links, folds each site's hosts into its nominal speed,
//! constructs the WAN graph (adding the main server and, when no links are
//! configured, a default star topology) and adds per-site LAN links. The
//! simulation core only ever works with this resolved form.
//!
//! Routes are built on demand, one source endpoint at a time. The first
//! [`Platform::route`] from a source grows that source's heap-Dijkstra
//! shortest-path tree (see [`topology`](crate::topology)) and writes its
//! routes to every endpoint into the source's row: the routes' links back to
//! back in one `LinkId` arena, and per destination a `u32` arena offset (a
//! route is the arena between its offset and the next) and the route's
//! latency and bottleneck as `f64`s. Set-up time and memory therefore grow
//! with the sources a run reads from, not with the square of the platform.
//! A row is a pure function of the graph, so it holds the same bits whenever
//! it is grown. The unit tests twin every route against the test-only
//! per-pair array-scan Dijkstra, link for link and bit for bit.

use std::cell::OnceCell;
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

/// A resolved route between two endpoints: a view into its source's row of
/// routes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route<'a> {
    /// Links traversed, in order.
    pub links: &'a [LinkId],
    /// Total one-way latency in seconds.
    pub latency_s: f64,
    /// Nominal bottleneck bandwidth in bytes/s (minimum over links).
    pub bottleneck_bps: f64,
}

/// One source endpoint's routes to every endpoint, by destination
/// [`endpoint_index`].
#[derive(Debug, Clone)]
struct RouteRow {
    /// The links of every route, back to back in destination order.
    links: Vec<LinkId>,
    /// Arena offset of each destination's first link, plus the arena's end,
    /// so destination `d`'s route is `links[starts[d]..starts[d + 1]]`.
    starts: Vec<u32>,
    latency_s: Vec<f64>,
    bottleneck_bps: Vec<f64>,
}

impl RouteRow {
    /// Grows the shortest-path tree of `from` and writes the routes from
    /// `from` to every endpoint, read off that tree. Fails on the first
    /// destination the tree does not reach.
    fn grow(platform: &Platform, from: NodeId) -> Result<Self, PlatformError> {
        let mut tree = PathTree::default();
        platform.graph.grow_tree(endpoint_index(from), &mut tree);
        let endpoints = platform.rows.len();
        let mut row = RouteRow {
            links: Vec::new(),
            starts: Vec::with_capacity(endpoints + 1),
            latency_s: Vec::with_capacity(endpoints),
            bottleneck_bps: Vec::with_capacity(endpoints),
        };
        row.starts.push(0);
        for to in platform.endpoints() {
            let column = endpoint_index(to);
            if !tree.reaches(column) {
                return Err(PlatformError::Unreachable {
                    from: from.to_string(),
                    to: to.to_string(),
                });
            }
            let start = row.links.len();
            let (latency, bottleneck) = if from == to {
                (0.0, f64::INFINITY)
            } else {
                // Transfers terminating (or originating) at a site also
                // cross that site's LAN link.
                if let NodeId::Site(s) = from {
                    row.links.push(platform.sites[s.index()].lan_link);
                }
                let wan = row.links.len();
                let edges = tree.edges_back(column);
                row.links.extend(edges.map(|e| platform.edge_links[e]));
                row.links[wan..].reverse();
                if let NodeId::Site(s) = to {
                    row.links.push(platform.sites[s.index()].lan_link);
                }
                let route = &row.links[start..];
                let latency: f64 = route
                    .iter()
                    .map(|l| platform.links[l.index()].latency_s)
                    .sum();
                let bottleneck = route
                    .iter()
                    .map(|l| platform.links[l.index()].bandwidth_bps)
                    .fold(f64::INFINITY, f64::min);
                (latency, bottleneck)
            };
            // The tree's paths to V nodes hold at most V(V - 1)/2 edges, and
            // each route adds at most two LAN links.
            let end = u32::try_from(row.links.len()).expect("a row holds fewer than 2³² links");
            row.starts.push(end);
            row.latency_s.push(latency);
            row.bottleneck_bps.push(bottleneck);
        }
        Ok(row)
    }

    fn route(&self, to: usize) -> Route<'_> {
        let links = self.starts[to] as usize..self.starts[to + 1] as usize;
        Route {
            links: &self.links[links],
            latency_s: self.latency_s[to],
            bottleneck_bps: self.bottleneck_bps[to],
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
    /// The WAN graph; node [`endpoint_index`]`(e)` is endpoint `e`.
    graph: Graph,
    /// Graph edge index -> WAN link.
    edge_links: Vec<LinkId>,
    /// The routes from each endpoint, by [`endpoint_index`], each grown the
    /// first time a route from its source is read.
    rows: Box<[OnceCell<RouteRow>]>,
}

/// Dense index of an endpoint — its WAN-graph node and its route row: the
/// main server first, then the sites by id.
fn endpoint_index(node: NodeId) -> usize {
    match node {
        NodeId::MainServer => 0,
        NodeId::Site(site) => site.index() + 1,
    }
}

impl Platform {
    /// Builds a platform from its specification.
    ///
    /// The build grows one binary-heap Dijkstra tree, the main server's —
    /// O((V + E) log V) for V = sites + 1 endpoints and E WAN links — and
    /// writes its V routes into the main server's row. The graph is
    /// undirected, so the main server reaching every endpoint connects every
    /// pair; the first endpoint it does not reach is
    /// [`PlatformError::Unreachable`]. Every other source's row is grown by
    /// its first [`route`](Self::route).
    pub fn build(spec: &PlatformSpec) -> Result<Self, PlatformError> {
        let mut platform = Self::resolve(spec)?;
        let main = RouteRow::grow(&platform, NodeId::MainServer)?;
        platform.rows[endpoint_index(NodeId::MainServer)] = main.into();
        Ok(platform)
    }

    /// Every endpoint, in [`endpoint_index`] order.
    fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(NodeId::MainServer).chain(self.sites.iter().map(|s| NodeId::Site(s.id)))
    }

    /// The routes from `from`, grown on first read.
    fn row(&self, from: NodeId) -> &RouteRow {
        self.rows[endpoint_index(from)].get_or_init(|| {
            RouteRow::grow(self, from).expect("`build` found every endpoint pair connected")
        })
    }

    /// Validates `spec` and resolves its sites, links and WAN graph; no
    /// route row is grown yet.
    fn resolve(spec: &PlatformSpec) -> Result<Self, PlatformError> {
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

        Ok(Platform {
            name: spec.name.clone(),
            rows: (0..=sites.len()).map(|_| OnceCell::new()).collect(),
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

    /// The lowest-latency route between two endpoints, a view of one entry
    /// of `from`'s row and a slice of that row's link arena. The first read
    /// from a source grows its row, O((V + E) log V) for V endpoints and E
    /// WAN links; every later read is O(1) and allocation-free.
    ///
    /// # Panics
    /// If either endpoint is not part of this platform.
    pub fn route(&self, from: NodeId, to: NodeId) -> Route<'_> {
        let endpoints = self.rows.len();
        assert!(
            endpoint_index(from) < endpoints && endpoint_index(to) < endpoints,
            "route endpoint outside the platform"
        );
        self.row(from).route(endpoint_index(to))
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
        platform: &Platform,
        from: NodeId,
        to: NodeId,
        path: &Path,
    ) -> (Vec<LinkId>, f64, f64) {
        if from == to {
            return (Vec::new(), 0.0, f64::INFINITY);
        }
        let mut route_links: Vec<LinkId> = Vec::with_capacity(path.edges.len() + 2);
        if let NodeId::Site(s) = from {
            route_links.push(platform.sites[s.index()].lan_link);
        }
        route_links.extend(path.edges.iter().map(|&e| platform.edge_links[e]));
        if let NodeId::Site(s) = to {
            route_links.push(platform.sites[s.index()].lan_link);
        }
        let latency: f64 = route_links
            .iter()
            .map(|l| platform.links[l.index()].latency_s)
            .sum();
        let bottleneck = route_links
            .iter()
            .map(|l| platform.links[l.index()].bandwidth_bps)
            .fold(f64::INFINITY, f64::min);
        (route_links, latency, bottleneck)
    }

    /// Rows grown so far.
    fn rows_grown(platform: &Platform) -> usize {
        platform
            .rows
            .iter()
            .filter(|row| row.get().is_some())
            .count()
    }

    /// Every endpoint of `platform`, in an order shuffled by `seed`.
    fn shuffled_endpoints(platform: &Platform, seed: u64) -> Vec<NodeId> {
        let mut endpoints: Vec<NodeId> = platform.endpoints().collect();
        let mut rng = cgsim_des::rng::Rng::new(seed);
        for i in (1..endpoints.len()).rev() {
            endpoints.swap(i, rng.index(i + 1));
        }
        endpoints
    }

    /// The route rows' reference twin: one early-exit array-scan Dijkstra
    /// per endpoint pair. Sources are read in shuffled order, so rows grow
    /// out of endpoint order, and every route must match the twin link for
    /// link and bit for bit (same tie-breaks, same summation order). Each
    /// row's routes must tile its link arena.
    fn assert_routes_match_per_pair_dijkstra(spec: &PlatformSpec) {
        let platform = Platform::build(spec).unwrap();
        assert_eq!(
            rows_grown(&platform),
            1,
            "the build grows the main server's row"
        );
        for from in shuffled_endpoints(&platform, spec.sites.len() as u64) {
            for to in platform.endpoints() {
                let path = platform
                    .graph
                    .shortest_path(endpoint_index(from), endpoint_index(to))
                    .unwrap();
                let (links, latency, bottleneck) = route_along(&platform, from, to, &path);
                let route = platform.route(from, to);
                assert_eq!(route.links, links, "{from} -> {to}");
                assert_eq!(route.latency_s.to_bits(), latency.to_bits());
                assert_eq!(route.bottleneck_bps.to_bits(), bottleneck.to_bits());
            }
            let row = platform.row(from);
            let arena: usize = (0..platform.rows.len())
                .map(|to| row.route(to).links.len())
                .sum();
            assert_eq!(
                arena,
                row.links.len(),
                "the routes from {from} tile its arena"
            );
        }
        assert_eq!(rows_grown(&platform), platform.rows.len());
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
    fn reading_from_k_sources_grows_k_rows_besides_the_main_servers() {
        let platform = Platform::build(&crate::presets::wlcg_platform(30, 7)).unwrap();
        let sites = |ids: &[usize]| ids.iter().map(|&i| NodeId::Site(SiteId::new(i))).collect();
        let sources: Vec<NodeId> = sites(&[17, 3, 29, 3, 17]);
        let destinations: Vec<NodeId> = sites(&[0, 9, 29]);
        let read = |from: &[NodeId]| {
            for &from in from {
                platform.route(from, NodeId::MainServer);
                for &to in &destinations {
                    platform.route(from, to);
                }
            }
        };
        read(&sources);
        // Three distinct sources, plus the main server's row from the build.
        assert_eq!(rows_grown(&platform), 4);
        read(&sources);
        read(&[NodeId::MainServer]);
        assert_eq!(rows_grown(&platform), 4, "reading again grows nothing");
        // A clone keeps the rows grown so far and grows its own from there.
        let clone = platform.clone();
        assert_eq!(rows_grown(&clone), 4);
        clone.route(NodeId::Site(SiteId::new(5)), NodeId::MainServer);
        assert_eq!((rows_grown(&clone), rows_grown(&platform)), (5, 4));
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
