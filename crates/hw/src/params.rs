//! 28nm technology constants and baseline machine models.
//!
//! Every constant here is a *documented, swappable knob*. The reproduction
//! reports ratios (speedup, energy-efficiency, area-efficiency) between
//! designs running identical counted workloads, so the shapes of the
//! evaluation figures are insensitive to the exact values — but the
//! defaults are chosen to be representative of 28nm CMOS literature and to
//! land the MOPED design point near the paper's 0.62 mm² / 137.5 mW.

/// Operating frequency of the MOPED engine and ASIC baselines (Hz).
pub const CLOCK_HZ: f64 = 1.0e9;

/// Energy of one 16-bit MAC-slot operation at 28nm (joules).
///
/// 16-bit multiply-accumulate energies reported for 28–32nm span roughly
/// 0.4–1 pJ; 0.6 pJ is a mid-range pick.
pub const MAC_ENERGY_J: f64 = 0.6e-12;

/// Silicon area of one 16-bit MAC including local pipeline registers
/// (mm²). 168 of these ≈ 0.094 mm².
pub const MAC_AREA_MM2: f64 = 5.6e-4;

/// Energy per 16-bit word read/written from a small on-chip SRAM bank
/// (joules). ~0.08 pJ/bit plus sense/decode overhead.
pub const SRAM_WORD_ENERGY_J: f64 = 1.6e-12;

/// SRAM macro density at 28nm (mm² per KB), including periphery.
pub const SRAM_AREA_MM2_PER_KB: f64 = 2.6e-3;

/// Static (leakage) power of the whole engine (watts).
pub const LEAKAGE_W: f64 = 8.0e-3;

/// Number of 16-bit MACs in the MOPED design example (§V-B).
pub const TOTAL_MACS: usize = 168;

/// On-chip SRAM budget of the design example in KB (§V-B).
pub const TOTAL_SRAM_KB: f64 = 198.0;

/// MAC-lane allocation per functional unit. The neighbor-search component
/// and the collision checker dominate; the refinement module owns its own
/// checker copy (Fig 11), and the SI-MBR operator + steering share the
/// remainder. Sums to [`TOTAL_MACS`].
pub mod lanes {
    /// Neighbor-search component lanes.
    pub const NS: usize = 48;
    /// Tree-extension collision checker lanes.
    pub const CC: usize = 64;
    /// Tree-refinement module lanes (distance calculator + checker copy).
    pub const REFINE: usize = 40;
    /// SI-MBR-Tree operator + steering + S&R unit lanes.
    pub const TREE_OP: usize = 16;
}

/// Pipeline bookkeeping overheads, in cycles.
pub mod overhead {
    /// Per-round fixed cost of the S&R repair comparison (compare the
    /// speculated nearest against up to the few missing neighbors).
    pub const REPAIR_CYCLES: u64 = 6;
    /// Per-round sampling cost (LFSR draws + bound scaling).
    pub const SAMPLE_CYCLES: u64 = 4;
}

/// Depth of the sampled-point FIFO between NS and CC units (§IV-B:
/// 20 entries suffice across all workloads).
pub const FIFO_DEPTH: usize = 20;

/// Capacity of the Missing Neighbors Buffer (§IV-B: 5 entries suffice).
pub const MISSING_NEIGHBOR_CAPACITY: usize = 5;

/// CPU baseline model (§V-B compares against an AMD EPYC 7601 running the
/// RTRBench C++ RRT\*).
pub mod cpu {
    /// Core clock (Hz).
    pub const CLOCK_HZ: f64 = 2.2e9;
    /// Machine instructions executed per counted MAC-equivalent algorithm
    /// operation. General-purpose planners spend the bulk of their cycles
    /// on pointer chasing, cache misses, dynamic dispatch, and allocation
    /// around each arithmetic op; 25 is a conservative literature-typical
    /// expansion for pointer-heavy tree code.
    pub const INSTRUCTIONS_PER_OP: f64 = 25.0;
    /// Sustained IPC for this workload class (branchy, cache-missing).
    pub const EFFECTIVE_IPC: f64 = 1.5;
    /// Core-level energy per retired instruction (joules): dynamic energy
    /// of the core pipeline + L1/L2 traffic, excluding uncore and DRAM.
    /// 60–150 pJ/instruction is the usual 14nm-server-core band.
    pub const ENERGY_PER_INSTRUCTION_J: f64 = 100e-12;
}

/// CODAcc occupancy-grid collision baseline model (Bakhshalipour et al., ISCA'22).
pub mod codacc {
    /// Grid resolution: one cell per workspace unit (paper footnote 3).
    pub const CELL_PER_UNIT: f64 = 1.0;
    /// Number of CODAcc accelerator instances integrated (paper: four).
    pub const UNITS: usize = 4;
    /// Occupancy cells tested per cycle per unit: a 64-cell grid row is
    /// read per access and compared in parallel (CODAcc's row-parallel
    /// datapath) — this is what makes the grid method competitive for
    /// collision checking despite volume-proportional work.
    pub const CELLS_PER_CYCLE_PER_UNIT: f64 = 64.0;
    /// Energy per occupancy-cell test (grid word read amortized), joules.
    pub const CELL_ENERGY_J: f64 = 0.25e-12;
    /// Extra datapath area of the four CODAcc units (mm²). The 3.2 MB
    /// occupancy grid itself is CPU-hosted and excluded, per the paper.
    pub const EXTRA_AREA_MM2: f64 = 0.08;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_allocation_sums_to_total() {
        assert_eq!(
            lanes::NS + lanes::CC + lanes::REFINE + lanes::TREE_OP,
            TOTAL_MACS
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // sanity-pins the model's magnitudes
    fn constants_are_physical() {
        assert!(MAC_ENERGY_J > 0.0 && MAC_ENERGY_J < 1e-10);
        assert!(CLOCK_HZ >= 1e8);
        assert!(cpu::INSTRUCTIONS_PER_OP >= 1.0);
        assert!(codacc::UNITS >= 1);
    }

    #[test]
    fn sr_buffers_match_paper() {
        assert_eq!(FIFO_DEPTH, 20);
        assert_eq!(MISSING_NEIGHBOR_CAPACITY, 5);
        // 0.75 KB total: 20 FIFO entries + 5 MNB entries of (id + d·16-bit
        // coords + distance) comfortably fit.
        let entry_bytes = 2 * (1 + 8 + 1); // 16-bit words
        let total = (FIFO_DEPTH + MISSING_NEIGHBOR_CAPACITY) * entry_bytes;
        assert!(total <= 768, "S&R buffers exceed 0.75KB: {total}B");
    }
}
