//! The ticker universe: 346 series across 12 sectors / 104 sub-sectors.

use crate::sector::Sector;

/// One financial time-series (an attribute of the mined database).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ticker {
    /// The symbol, e.g. `XOM`.
    pub symbol: String,
    /// Industrial sector.
    pub sector: Sector,
    /// Global sub-sector index in `0..104`.
    pub subsector: u16,
}

/// Real tickers named in the paper's Tables 5.1/5.2 and Section 5.2, with
/// their sector tags as printed there. These seed the synthetic universe so
/// experiment tables can print the same symbols the paper does.
pub const PAPER_TICKERS: &[(&str, &str)] = &[
    // Row subjects of Tables 5.1/5.2.
    ("EMN", "BM"),
    ("HON", "CG"),
    ("GT", "CC"),
    ("PG", "CN"),
    ("XOM", "E"),
    ("AIG", "F"),
    ("JNJ", "H"),
    ("JCP", "SV"),
    ("INTC", "T"),
    ("FDX", "TP"),
    ("TE", "U"),
    // Their predictors.
    ("PPG", "BM"),
    ("AVY", "BM"),
    ("BLL", "BM"),
    ("IFF", "BM"),
    ("DOW", "BM"),
    ("FMC", "BM"),
    ("TXT", "C"),
    ("UTX", "CG"),
    ("CAT", "CG"),
    ("BA", "CG"),
    ("F", "CC"),
    ("CL", "CN"),
    ("CLX", "CN"),
    ("K", "CN"),
    ("CPB", "CN"),
    ("PEP", "CN"),
    ("CVX", "E"),
    ("HES", "E"),
    ("SLB", "E"),
    ("COG", "E"),
    ("C", "F"),
    ("BEN", "F"),
    ("PGR", "F"),
    ("AON", "F"),
    ("CI", "F"),
    ("AXP", "F"),
    ("BAC", "F"),
    ("MRK", "H"),
    ("ABT", "H"),
    ("M", "SV"),
    ("FDO", "SV"),
    ("GPS", "SV"),
    ("COST", "SV"),
    ("HD", "SV"),
    ("SYY", "SV"),
    ("KIM", "SV"),
    ("YHOO", "SV"),
    ("LLTC", "T"),
    ("XLNX", "T"),
    ("EMC", "T"),
    ("QCOM", "T"),
    ("CTXS", "T"),
    ("ITT", "T"),
    ("ETN", "T"),
    ("ROK", "T"),
    ("EXPD", "TP"),
    ("PGN", "U"),
    ("AEP", "U"),
    ("SO", "U"),
    ("TEG", "U"),
    ("PEG", "U"),
];

/// Per-sector target counts for the full 346-ticker universe (chosen to sum
/// to 346 with weights loosely proportional to real S&P sector sizes).
const SECTOR_COUNTS: [usize; 12] = [30, 28, 8, 30, 30, 26, 34, 26, 40, 40, 14, 40];

/// Sub-sector slot for the `nth` ticker of a sector: tickers are grouped in
/// runs of 3 per sub-sector (the real S&P density is 346/104 ≈ 3.3), wrapping
/// when a sector outgrows its sub-sector count. Grouping (rather than
/// round-robin) guarantees same-sub-sector pairs exist even in small
/// universes, which the factor model needs to produce high-ACV edges.
fn subsector_slot(nth: usize, num_subsectors: usize) -> usize {
    (nth / 3) % num_subsectors
}

/// A universe of tickers with sector and sub-sector structure.
#[derive(Debug, Clone)]
pub struct Universe {
    tickers: Vec<Ticker>,
    /// `(sector, local index)` for each global sub-sector id.
    subsectors: Vec<(Sector, usize)>,
}

impl Universe {
    /// Builds the paper-shaped universe with `n` tickers (clamped to
    /// `12..=2048`). The ~60 tickers the paper names come first (as many
    /// as fit the per-sector quota), then synthetic symbols fill each
    /// sector. Above the real 346-ticker shape the per-sector quotas
    /// keep scaling proportionally and sub-sectors keep wrapping, so
    /// wide-universe fixtures (the n = 500 memory gate) stay
    /// sector-structured rather than i.i.d. noise.
    ///
    /// Sub-sectors are assigned round-robin within each sector, so every
    /// sub-sector with enough tickers has at least a few members.
    pub fn sp500(n: usize) -> Universe {
        let n = n.clamp(12, 2048);
        // Scale per-sector counts down proportionally, keeping >= 1 each.
        let total: usize = SECTOR_COUNTS.iter().sum();
        let mut counts = [0usize; 12];
        let mut assigned = 0;
        for (i, &c) in SECTOR_COUNTS.iter().enumerate() {
            counts[i] = ((c * n + total / 2) / total).max(1);
            assigned += counts[i];
        }
        // Fix rounding drift on the largest sectors.
        let mut i = 0;
        while assigned > n {
            let max = counts.iter().copied().enumerate().max_by_key(|&(_, c)| c);
            if let Some((j, c)) = max {
                if c > 1 {
                    counts[j] -= 1;
                    assigned -= 1;
                }
            }
            i += 1;
            if i > 1000 {
                break;
            }
        }
        while assigned < n {
            counts[SECTOR_COUNTS
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(j, _)| j)
                .unwrap()] += 1;
            assigned += 1;
        }

        // Global sub-sector table.
        let mut subsectors = Vec::new();
        let mut subsector_base = [0usize; 12];
        for s in Sector::ALL {
            subsector_base[s.index()] = subsectors.len();
            for local in 0..s.num_subsectors() {
                subsectors.push((s, local));
            }
        }

        let mut tickers: Vec<Ticker> = Vec::with_capacity(n);
        let mut per_sector_filled = [0usize; 12];
        // Seed with the paper's real tickers while quota remains.
        for &(sym, code) in PAPER_TICKERS {
            let sector = Sector::from_code(code).expect("paper codes are valid");
            let si = sector.index();
            if per_sector_filled[si] < counts[si] {
                let local_ss = subsector_slot(per_sector_filled[si], sector.num_subsectors());
                tickers.push(Ticker {
                    symbol: sym.to_string(),
                    sector,
                    subsector: (subsector_base[si] + local_ss) as u16,
                });
                per_sector_filled[si] += 1;
            }
        }
        // Fill the remainder with synthetic symbols per sector.
        for s in Sector::ALL {
            let si = s.index();
            let mut serial = 0usize;
            while per_sector_filled[si] < counts[si] {
                let symbol = format!("{}{:02}", s.code(), serial);
                serial += 1;
                if tickers.iter().any(|t| t.symbol == symbol) {
                    continue;
                }
                let local_ss = subsector_slot(per_sector_filled[si], s.num_subsectors());
                tickers.push(Ticker {
                    symbol,
                    sector: s,
                    subsector: (subsector_base[si] + local_ss) as u16,
                });
                per_sector_filled[si] += 1;
            }
        }

        Universe {
            tickers,
            subsectors,
        }
    }

    /// Number of tickers.
    pub fn len(&self) -> usize {
        self.tickers.len()
    }

    /// True for an empty universe (never produced by [`Universe::sp500`]).
    pub fn is_empty(&self) -> bool {
        self.tickers.is_empty()
    }

    /// The tickers, in attribute/column order.
    pub fn tickers(&self) -> &[Ticker] {
        &self.tickers
    }

    /// The ticker at position `i`.
    pub fn ticker(&self, i: usize) -> &Ticker {
        &self.tickers[i]
    }

    /// Finds a ticker's position by symbol.
    pub fn index_of(&self, symbol: &str) -> Option<usize> {
        self.tickers.iter().position(|t| t.symbol == symbol)
    }

    /// Total number of sub-sectors in the universe's schema (104 for the
    /// full universe).
    pub fn num_subsectors(&self) -> usize {
        self.subsectors.len()
    }

    /// Number of sub-sectors actually populated by tickers. Reduced
    /// universes use fewer than the schema's 104; clustering experiments
    /// use this as `t` (the paper sets `t` to the number of sub-sectors).
    pub fn used_subsectors(&self) -> usize {
        let mut seen = vec![false; self.subsectors.len()];
        for t in &self.tickers {
            seen[t.subsector as usize] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// The sector owning global sub-sector `ss`.
    pub fn subsector_sector(&self, ss: u16) -> Sector {
        self.subsectors[ss as usize].0
    }

    /// Ticker symbols, in order.
    pub fn symbols(&self) -> Vec<String> {
        self.tickers.iter().map(|t| t.symbol.clone()).collect()
    }

    /// Ticker positions belonging to `sector`.
    pub fn sector_members(&self, sector: Sector) -> Vec<usize> {
        self.tickers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.sector == sector)
            .map(|(i, _)| i)
            .collect()
    }

    /// The sector with the most tickers (the paper picks its first cluster
    /// center from the largest sector, Technology).
    pub fn largest_sector(&self) -> Sector {
        *Sector::ALL
            .iter()
            .max_by_key(|&&s| self.sector_members(s).len())
            .expect("twelve sectors")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_universe_has_346_tickers() {
        let u = Universe::sp500(346);
        assert_eq!(u.len(), 346);
        assert_eq!(u.num_subsectors(), 104);
        // All 12 sectors populated.
        for s in Sector::ALL {
            assert!(!u.sector_members(s).is_empty(), "sector {s} empty");
        }
    }

    #[test]
    fn paper_tickers_present_with_correct_sectors() {
        let u = Universe::sp500(346);
        for &(sym, code) in PAPER_TICKERS {
            let i = u.index_of(sym).unwrap_or_else(|| panic!("{sym} missing"));
            assert_eq!(u.ticker(i).sector.code(), code, "{sym}");
        }
    }

    #[test]
    fn symbols_are_unique() {
        let u = Universe::sp500(346);
        let mut syms = u.symbols();
        syms.sort();
        syms.dedup();
        assert_eq!(syms.len(), 346);
    }

    #[test]
    fn small_universe_keeps_all_sectors() {
        let u = Universe::sp500(24);
        assert_eq!(u.len(), 24);
        for s in Sector::ALL {
            assert!(!u.sector_members(s).is_empty());
        }
    }

    #[test]
    fn clamping() {
        assert_eq!(Universe::sp500(1).len(), 12);
        assert_eq!(Universe::sp500(10_000).len(), 2048);
    }

    #[test]
    fn wide_universe_stays_sector_structured() {
        let u = Universe::sp500(500);
        assert_eq!(u.len(), 500);
        let mut syms = u.symbols();
        syms.sort();
        syms.dedup();
        assert_eq!(syms.len(), 500, "symbols stay unique past 346");
        for s in Sector::ALL {
            assert!(!u.sector_members(s).is_empty(), "sector {s} empty");
        }
        for t in u.tickers() {
            assert_eq!(u.subsector_sector(t.subsector), t.sector);
        }
    }

    #[test]
    fn subsector_sector_consistency() {
        let u = Universe::sp500(346);
        for t in u.tickers() {
            assert_eq!(u.subsector_sector(t.subsector), t.sector);
        }
    }

    #[test]
    fn used_subsectors_counts_populated_slots() {
        // Full universe: sector counts wrap around every sub-sector.
        let u = Universe::sp500(346);
        assert_eq!(u.used_subsectors(), 104);
        // 60 tickers in groups of 3: Σ ceil(count_s / 3) populated
        // sub-sectors — between 12 (one per sector) and 20 + 12 (per-sector
        // rounding can add one slot each).
        let u = Universe::sp500(60);
        let used = u.used_subsectors();
        assert!((12..=32).contains(&used), "used = {used}");
    }

    #[test]
    fn largest_sector_matches_member_counts() {
        let u = Universe::sp500(346);
        let s = u.largest_sector();
        let max = Sector::ALL
            .iter()
            .map(|&x| u.sector_members(x).len())
            .max()
            .unwrap();
        assert_eq!(u.sector_members(s).len(), max);
    }
}
