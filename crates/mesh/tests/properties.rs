//! Property-based tests for the mesh substrate: metric axioms, spiral
//! orders, and center-of-mass invariants.

use cdcs_mesh::geometry::{
    center_of_mass, compact_mean_distance, nearest_tile, tiles_by_distance_from_point, Point,
};
use cdcs_mesh::{
    DistanceTables, MemCtrlPlacement, Mesh, NocConfig, PortDistanceTables, RegionGrid,
    RegionTables, TileId, Topology,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn hops_is_a_metric(cols in 1u16..10, rows in 1u16..10, a in 0u16.., b in 0u16.., c in 0u16..) {
        let mesh = Mesh::new(cols, rows);
        let n = mesh.num_tiles() as u16;
        let (a, b, c) = (TileId(a % n), TileId(b % n), TileId(c % n));
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(mesh.hops(a, a), 0);
        prop_assert_eq!(mesh.hops(a, b), mesh.hops(b, a));
        prop_assert!(mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c));
        if a != b {
            prop_assert!(mesh.hops(a, b) > 0);
        }
    }

    #[test]
    fn tiles_by_distance_is_a_permutation_sorted_by_distance(
        cols in 1u16..8, rows in 1u16..8, from in 0u16..,
    ) {
        let mesh = Mesh::new(cols, rows);
        let from = TileId(from % mesh.num_tiles() as u16);
        let order = mesh.tiles_by_distance(from);
        prop_assert_eq!(order.len(), mesh.num_tiles());
        let mut ids: Vec<u16> = order.iter().map(|t| t.0).collect();
        ids.sort_unstable();
        prop_assert!(ids.iter().enumerate().all(|(i, &t)| t == i as u16));
        for w in order.windows(2) {
            prop_assert!(mesh.hops(from, w[0]) <= mesh.hops(from, w[1]));
        }
        prop_assert_eq!(order[0], from);
    }

    #[test]
    fn center_of_mass_is_inside_the_hull(
        side in 2u16..8,
        weights in prop::collection::vec(0.1f64..10.0, 1..10),
    ) {
        let mesh = Mesh::new(side, side);
        let weighted: Vec<(TileId, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (TileId((i % mesh.num_tiles()) as u16), w))
            .collect();
        let com = center_of_mass(&mesh, &weighted).expect("positive weights");
        prop_assert!(com.x >= 0.0 && com.x <= f64::from(side - 1));
        prop_assert!(com.y >= 0.0 && com.y <= f64::from(side - 1));
        // The nearest tile to the COM is a real tile.
        let t = nearest_tile(&mesh, com);
        prop_assert!(t.index() < mesh.num_tiles());
    }

    #[test]
    fn compact_mean_distance_is_monotone_in_size(
        side in 2u16..9, x in 0.0f64..8.0, y in 0.0f64..8.0,
        s1 in 0.5f64..20.0, s2 in 0.5f64..20.0,
    ) {
        let mesh = Mesh::new(side, side);
        let p = Point { x: x.min(f64::from(side - 1)), y: y.min(f64::from(side - 1)) };
        let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
        let cap = mesh.num_tiles() as f64;
        let d_lo = compact_mean_distance(&mesh, p, lo.min(cap));
        let d_hi = compact_mean_distance(&mesh, p, hi.min(cap));
        prop_assert!(d_lo <= d_hi + 1e-9, "{d_lo} > {d_hi}");
    }

    #[test]
    fn spiral_from_point_is_complete(side in 1u16..8, x in 0.0f64..7.0, y in 0.0f64..7.0) {
        let mesh = Mesh::new(side, side);
        let p = Point { x: x.min(f64::from(side - 1)), y: y.min(f64::from(side - 1)) };
        let order = tiles_by_distance_from_point(&mesh, p);
        prop_assert_eq!(order.len(), mesh.num_tiles());
        for w in order.windows(2) {
            let d0 = mesh.hops_to_point(w[0], p.x, p.y);
            let d1 = mesh.hops_to_point(w[1], p.x, p.y);
            prop_assert!(d0 <= d1 + 1e-9);
        }
    }

    // The engine's interval drain reads these tables instead of calling
    // `mesh.hops` / `noc.round_trip_latency` per access; bit-identical
    // entries for every pair are what make the drain and the reference
    // engine produce equal results.
    #[test]
    fn distance_tables_match_mesh_and_noc(
        cols in 1u16..10, rows in 1u16..10,
        router in 1u32..6, link in 1u32..4,
    ) {
        let mesh = Mesh::new(cols, rows);
        let noc = NocConfig { router_cycles: router, link_cycles: link, flit_bytes: 16 };
        let tables = DistanceTables::new(&mesh, noc);
        prop_assert_eq!(tables.num_tiles(), mesh.num_tiles());
        for a in mesh.tiles() {
            for b in mesh.tiles() {
                prop_assert_eq!(tables.hops(a, b), mesh.hops(a, b));
                prop_assert_eq!(
                    tables.round_trip(a, b).to_bits(),
                    f64::from(noc.round_trip_latency(mesh.hops(a, b))).to_bits()
                );
            }
        }
    }

    // Region partitioning invariants for the hierarchical planner: the
    // partition is exact (every tile in exactly one region), each region is a
    // contiguous axis-aligned rectangle, and the region-aggregated distance
    // tables reproduce `mesh.hops` aggregates bit-for-bit.
    #[test]
    fn region_partition_is_exact_rectangles(
        cols in 1u16..12, rows in 1u16..12, side in 1u16..6,
    ) {
        let mesh = Mesh::new(cols, rows);
        let grid = RegionGrid::new(mesh, side);

        // Every tile belongs to exactly one region, and the CSR tile lists
        // agree with `region_of`.
        let mut owner = vec![usize::MAX; mesh.num_tiles()];
        for r in 0..grid.num_regions() {
            for &t in grid.tiles(r) {
                prop_assert_eq!(owner[t.index()], usize::MAX, "tile in two regions");
                owner[t.index()] = r;
                prop_assert_eq!(grid.region_of(t), r);
            }
        }
        prop_assert!(owner.iter().all(|&r| r != usize::MAX), "uncovered tile");

        // Each region is the full contiguous rectangle of its bounds.
        for r in 0..grid.num_regions() {
            let (lo, hi) = grid.bounds(r);
            prop_assert!(lo.x <= hi.x && lo.y <= hi.y);
            prop_assert!(hi.x - lo.x < side && hi.y - lo.y < side);
            let area = (hi.x - lo.x + 1) as usize * (hi.y - lo.y + 1) as usize;
            prop_assert_eq!(grid.tiles(r).len(), area);
            for &t in grid.tiles(r) {
                let c = mesh.coord(t);
                prop_assert!(c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y);
            }
        }
    }

    #[test]
    fn region_tables_match_mesh_hops_aggregates(
        cols in 1u16..9, rows in 1u16..9, side in 1u16..5,
        router in 1u32..6, link in 1u32..4,
    ) {
        let mesh = Mesh::new(cols, rows);
        let noc = NocConfig { router_cycles: router, link_cycles: link, flit_bytes: 16 };
        let grid = RegionGrid::new(mesh, side);
        let tables = RegionTables::new(&grid, noc);
        prop_assert_eq!(tables.num_regions(), grid.num_regions());

        // Tile → region means, accumulated in the same ascending tile order
        // the tables use, must be bit-identical.
        for t in mesh.tiles() {
            for r in 0..grid.num_regions() {
                let mut hops = 0.0;
                let mut rt = 0.0;
                for &b in grid.tiles(r) {
                    let h = mesh.hops(t, b);
                    hops += f64::from(h);
                    rt += f64::from(noc.round_trip_latency(h));
                }
                let n = grid.tiles(r).len() as f64;
                prop_assert_eq!(tables.tile_mean_hops(t, r).to_bits(), (hops / n).to_bits());
                prop_assert_eq!(
                    tables.tile_mean_round_trip(t, r).to_bits(),
                    (rt / n).to_bits()
                );
            }
        }

        // Region → region means over all tile pairs.
        for a in 0..grid.num_regions() {
            for b in 0..grid.num_regions() {
                let mut hops = 0.0;
                for &ta in grid.tiles(a) {
                    for &tb in grid.tiles(b) {
                        hops += f64::from(mesh.hops(ta, tb));
                    }
                }
                let pairs = (grid.tiles(a).len() * grid.tiles(b).len()) as f64;
                prop_assert_eq!(tables.mean_hops(a, b).to_bits(), (hops / pairs).to_bits());
            }
        }
    }

    #[test]
    fn port_distance_tables_match_mesh_and_noc(
        cols in 2u16..10, rows in 2u16..10, controllers in 1usize..9,
        router in 1u32..6, link in 1u32..4,
    ) {
        let mesh = Mesh::new(cols, rows);
        let noc = NocConfig { router_cycles: router, link_cycles: link, flit_bytes: 16 };
        let mc = MemCtrlPlacement::edges(&mesh, controllers);
        let tables = PortDistanceTables::new(&mesh, noc, mc.ports());
        prop_assert_eq!(tables.num_ports(), mc.count());
        for t in mesh.tiles() {
            for (p, &port) in mc.ports().iter().enumerate() {
                prop_assert_eq!(tables.hops(t, p), mesh.hops(t, port));
                prop_assert_eq!(
                    tables.round_trip(t, p).to_bits(),
                    f64::from(noc.round_trip_latency(mesh.hops(t, port))).to_bits()
                );
            }
        }
    }
}
