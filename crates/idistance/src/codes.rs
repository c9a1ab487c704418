//! Cell codes: a 64-bit quantised image of a stored row, the whole of its
//! B⁺-tree leaf entry, so a scan can bound the row's distance from below
//! before it follows the entry's position to the heap; and, read as a
//! point on a Hilbert curve ([`Codebook::hilbert`]) or as its cell's
//! midpoint, where a partition's heap records are laid out
//! (`crate::grouping`).
//!
//! A partition's [`Codebook`] cuts every coordinate's axis into equi-depth
//! cells — `2^bits` of them, the 64 bits shared out over the coordinates —
//! and a row's code is its cell index on each axis. The bound a code gives is
//! the VA-file's: no point of a cell is nearer the query than the cell's
//! nearest face. Here it is *exact*, with no epsilon: the cell edges are
//! plain numbers compared as `f64`, `lo ≤ p ≤ hi` holds for the very
//! coordinate `p` that was coded, and [`Codebook::gap_sq`] sums its
//! per-axis gaps by the operations of [`mmdr_linalg::reduced_dist`] in its
//! order. IEEE rounding is monotone, so every term, every partial sum, the
//! `proj_sq +` and the `sqrt` come out `≤` what `reduced_dist` returns for
//! the row, to the bit — a row abandoned because its bound lies strictly
//! beyond the result set's reach is a row the result set would have refused.
//! The cell's far face bounds the distance from above by the same argument,
//! where every coordinate is coded.
//!
//! A load codes a row's *unrounded* projection `p`, but a record stores its
//! nearest `f32` ([`crate::layout::stored_values`]), and the bounds must
//! hold for what a search reads. They do: the edges are `f32`s, [`encode`]
//! puts `p` in the cell with `lo < p ≤ hi`, and rounding to nearest is
//! monotone and leaves an `f32` where it is, so `lo ≤ f32(p) ≤ hi` — the
//! closed cell holds the stored value, and [`Codebook::gaps_into`] measures
//! both faces of the closed cell. Coding the stored value instead would put
//! a row whose projection lies just above an edge it rounds onto in the
//! cell below: the cells, and so the counts, of a build would move. A fold,
//! which has only stored values, codes those directly.
//!
//! [`encode`]: Codebook::encode

use crate::error::{Error, Result};

/// How the 64 bits of a code are shared out over the coordinates of `dim`:
/// evenly, the remainder to the leading coordinates, at most 8 each (more
/// buys nothing at a few thousand rows a partition) and — past 64
/// coordinates — one each for the first 64, the rest uncoded. So the first
/// `.0` coded axes have `.1 + 1` bits and the other `.2` have `.1`.
fn shape(dim: usize) -> (usize, u32, usize) {
    let even = (64 / dim.max(1)).max(1);
    let axes = dim.min(64);
    if even >= 8 {
        return (0, 8, axes);
    }
    let wide = 64usize.saturating_sub(even * dim);
    (wide, even as u32, axes - wide)
}

/// Bits of the code given to each coded coordinate of `dim`, `j` ascending.
fn widths(dim: usize) -> impl Iterator<Item = u32> {
    let (wide, width, narrow) = shape(dim);
    std::iter::repeat_n(width + 1, wide).chain(std::iter::repeat_n(width, narrow))
}

/// The cell edges of one partition's axes.
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    /// Width of the rows this codebook codes.
    dim: usize,
    /// Inner edges, axis after axis (`2^bits − 1` each, ascending), rounded
    /// to `f32` and compared as `f64`. The two outer cells of an axis are
    /// unbounded, so every finite value has a cell — also one from outside
    /// the range the edges were cut from.
    edges: Vec<f32>,
    /// [`shape`] of `dim`, worked out once.
    shape: (usize, u32, usize),
}

impl Codebook {
    /// Cuts equi-depth cells from the rows of a partition as they are about
    /// to be laid out: edge `i` of `m` on an axis is the column's
    /// `i/m`-quantile. `None` for no rows.
    ///
    /// A column is sorted as the `u64`s that order as [`f64::total_cmp`]
    /// orders its values — all bits flipped on a negative, the sign bit on
    /// any other — so the quantiles are `total_cmp`'s, without its call per
    /// comparison.
    pub fn fit<'a>(rows: impl ExactSizeIterator<Item = &'a [f64]> + Clone) -> Option<Self> {
        const SIGN: u64 = 1 << 63;
        let ordered = |x: f64| {
            let bits = x.to_bits();
            bits ^ if bits & SIGN == 0 { SIGN } else { u64::MAX }
        };
        let value = |key: u64| f64::from_bits(key ^ if key & SIGN == 0 { u64::MAX } else { SIGN });
        let dim = rows.clone().next()?.len();
        let mut edges = Vec::new();
        let mut column = Vec::with_capacity(rows.len());
        for (j, width) in widths(dim).enumerate() {
            column.clear();
            column.extend(rows.clone().map(|row| ordered(row[j])));
            column.sort_unstable();
            let cells = 1usize << width;
            edges.extend((1..cells).map(|i| value(column[i * column.len() / cells]) as f32));
        }
        Some(Self {
            dim,
            edges,
            shape: shape(dim),
        })
    }

    /// A decoded codebook: `edges` as [`edges`](Self::edges) returned them.
    pub fn from_edges(dim: usize, edges: Vec<f32>) -> Result<Self> {
        let expected: usize = widths(dim).map(|w| (1usize << w) - 1).sum();
        let book = Self {
            dim,
            edges,
            shape: shape(dim),
        };
        let fits = book.edges.len() == expected
            && book
                .axes()
                .all(|axis| axis.windows(2).all(|pair| pair[0] <= pair[1]))
            && !book.edges.iter().any(|e| e.is_nan());
        if !fits {
            return Err(Error::InvalidConfig(
                "codebook edges do not fit their dimension",
            ));
        }
        Ok(book)
    }

    /// The number of coded axes: the width, at most 64.
    pub(crate) fn coded_axes(&self) -> usize {
        self.shape.0 + self.shape.2
    }

    /// The inner edges, axis after axis.
    pub fn edges(&self) -> &[f32] {
        &self.edges
    }

    /// Each coded axis's inner edges, `j` ascending.
    fn axes(&self) -> impl Iterator<Item = &[f32]> {
        let mut rest = &self.edges[..];
        widths(self.dim).map(move |width| {
            let (axis, tail) = rest.split_at((1 << width) - 1);
            rest = tail;
            axis
        })
    }

    /// The code of a stored row: per axis the number of edges strictly
    /// below the coordinate, packed `j` ascending from the low bits — so
    /// the cell's lower edge is below the coordinate and its upper edge
    /// not.
    pub fn encode(&self, row: &[f64]) -> u64 {
        debug_assert_eq!(row.len(), self.dim);
        let (mut code, mut shift) = (0u64, 0);
        for (&p, axis) in row.iter().zip(self.axes()) {
            code |= (axis.partition_point(|&e| f64::from(e) < p) as u64) << shift;
            shift += (axis.len() + 1).trailing_zeros();
        }
        code
    }

    /// The index of `code`'s cell on the Hilbert curve through the coded
    /// axes: Skilling's transpose (AIP Conf. Proc. 707, 2004) over each
    /// axis's cell index, left-aligned to the widest axis's bits, read off
    /// most significant bit first, axis 0 first. Cells next to one another
    /// on the curve are next to one another on one axis, so the curve cut
    /// into page-sized runs is where a load's heap grouping starts
    /// (`grouping`). The index has `axes × widest` bits: at
    /// most 8 axes of 8 bits, or axes whose widths sum to 64 and differ by
    /// at most one — never past 128.
    pub fn hilbert(&self, mut code: u64) -> u128 {
        let (wide, width, narrow) = self.shape;
        let (axes, bits) = (wide + narrow, width + u32::from(wide > 0));
        if axes == 0 {
            return 0;
        }
        let x = &mut [0u32; 64][..axes];
        for (j, xj) in x.iter_mut().enumerate() {
            let w = width + u32::from(j < wide);
            *xj = ((code & ((1 << w) - 1)) as u32) << (bits - w);
            code >>= w;
        }
        let planes = || (1..bits).rev().map(|b| 1u32 << b);
        // Undo the inverse transform's excess work, bit plane by bit plane
        // from the top: where axis i has the plane's bit, invert axis 0's
        // lower bits, else swap them with axis i's. Branch-free, axis 0 in
        // a register: the bits are the data's, and with a branch on each
        // a row took twice as long.
        for q in planes() {
            let (low, mut x0) = (q - 1, x[0]);
            for xi in x.iter_mut() {
                let invert = 0u32.wrapping_sub(u32::from(*xi & q != 0));
                let swap = (x0 ^ *xi) & low & !invert;
                x0 ^= low & invert | swap;
                *xi ^= swap;
            }
            x[0] = x0;
        }
        // Gray encode, then interleave the planes, axis 0 first.
        for i in 1..axes {
            x[i] ^= x[i - 1];
        }
        let last = x[axes - 1];
        let t = planes()
            .filter(|q| last & q != 0)
            .fold(0, |t, q| t ^ (q - 1));
        (0..bits).rev().fold(0u128, |index, b| {
            let plane = x
                .iter()
                .fold(0u64, |plane, &xi| plane << 1 | u64::from((xi ^ t) >> b & 1));
            index << axes | u128::from(plane)
        })
    }

    /// Each coded axis's cell midpoints, axis after axis, cell by cell (a
    /// table laid out as [`gaps_into`](Self::gaps_into)'s): halfway between
    /// the cell's two faces, or an outer cell's one inner face, every face
    /// clamped to `±f32::MAX` — so every midpoint is finite, an edge past
    /// `f32`'s range too (no edge is NaN: [`fit`](Self::fit) cuts them
    /// from finite rows, and [`from_edges`](Self::from_edges) refuses one).
    /// The points a load groups records onto heap pages by
    /// ([`crate::grouping`]).
    pub(crate) fn midpoints(&self) -> Vec<f32> {
        let face = |e: f32| e.clamp(-f32::MAX, f32::MAX);
        let mut table = Vec::with_capacity(self.edges.len() + self.coded_axes());
        for axis in self.axes() {
            let inner = axis
                .windows(2)
                .map(|pair| 0.5 * face(pair[0]) + 0.5 * face(pair[1]));
            table.push(face(axis[0]));
            table.extend(inner);
            table.push(face(axis[axis.len() - 1]));
        }
        table
    }

    /// Writes `table`'s entry for `code`'s cell on each coded axis to
    /// `point`, `j` ascending (`table` one of [`midpoints`](Self::midpoints);
    /// `point` [`coded_axes`](Self::coded_axes) long).
    pub(crate) fn cells_into(&self, table: &[f32], mut code: u64, point: &mut [f32]) {
        let (wide, width, _) = self.shape;
        let mut cells = table;
        for (j, p) in point.iter_mut().enumerate() {
            let bits = width + u32::from(j < wide);
            let (axis, rest) = cells.split_at(1 << bits);
            *p = axis[code as usize & ((1 << bits) - 1)];
            (cells, code) = (rest, code >> bits);
        }
    }

    /// Appends to `near` one query's gap table against this codebook:
    /// axis after axis, per cell `max(lo − q, q − hi, 0)²` — the squared
    /// distance from the query's coordinate to the cell's nearest face, 0
    /// inside the cell and towards an unbounded side — and in the same pass,
    /// if every coordinate is coded (`dim ≤ 64`), to `far` its far face's,
    /// `max(q − lo, hi − q)²`, `∞` towards an unbounded side.
    pub fn gaps_into(&self, q_local: &[f64], near: &mut Vec<f64>, far: &mut Vec<f64>) {
        debug_assert_eq!(q_local.len(), self.dim);
        let (whole, cells) = (self.dim <= 64, self.edges.len() + self.dim.min(64));
        near.reserve(cells);
        far.reserve(if whole { cells } else { 0 });
        for (&q, axis) in q_local.iter().zip(self.axes()) {
            for cell in 0..=axis.len() {
                let lo = match cell {
                    0 => f64::NEG_INFINITY,
                    _ => f64::from(axis[cell - 1]),
                };
                let hi = axis.get(cell).map_or(f64::INFINITY, |&e| f64::from(e));
                let (gap, far_gap) = ((lo - q).max(q - hi).max(0.0), (q - lo).max(hi - q));
                near.push(gap * gap);
                far.extend(whole.then_some(far_gap * far_gap));
            }
        }
    }

    /// The sum over the coded axes of `code`'s gaps in `table` (one of this
    /// codebook's [`gaps_into`](Self::gaps_into) tables), from `0.0`, `j`
    /// ascending: over the near table `≤` the `l2_dist_sq` of the query and
    /// the coded row, so `(proj_sq + gap_sq).sqrt()` is `≤` their
    /// `reduced_dist`, and over the far table `≥` (`lo ≤ p ≤ hi` bounds
    /// `|q − p|` by the far face). The one routine here that runs per leaf
    /// entry: two runs of axes, each of one width.
    #[inline]
    pub fn gap_sq(&self, table: &[f64], mut code: u64) -> f64 {
        let (wide, width, _) = self.shape;
        let (wider, narrower) = table.split_at(wide << (width + 1));
        let mut sum = 0.0;
        for (axes, width) in [(wider, width + 1), (narrower, width)] {
            for cells in axes.chunks_exact(1 << width) {
                sum += cells[code as usize & (cells.len() - 1)];
                code >>= width;
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn the_64_bits_are_shared_out_as_the_design_says() {
        let bits = |d: usize| widths(d).collect::<Vec<_>>();
        assert_eq!(bits(12), [6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5]);
        assert_eq!(bits(8), [8; 8]);
        assert_eq!(bits(1), [8]);
        assert_eq!(bits(20)[..5], [4, 4, 4, 4, 3]);
        assert_eq!(bits(64), [1; 64]);
        assert_eq!(bits(40)[22..26], [2, 2, 1, 1]);
        assert_eq!(bits(80), [1; 64], "coordinates 64.. are not coded");
        assert_eq!(bits(0), [0; 0]);
        for d in 1..=200 {
            let total: u32 = widths(d).sum();
            assert!(total <= 64 && (d < 8 || total == 64), "d = {d}: {total}");
        }
    }

    #[test]
    fn a_decoded_codebook_must_fit_its_dimension() {
        let rows = [vec![0.5, -1.0, 3.0], vec![0.25, 2.0, 3.0]];
        let book = Codebook::fit(rows.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(book.edges().len(), 3 * 255);
        let back = Codebook::from_edges(3, book.edges().to_vec()).unwrap();
        assert_eq!(back, book);
        assert!(Codebook::from_edges(2, book.edges().to_vec()).is_err());
        let mut unsorted = book.edges().to_vec();
        unsorted.swap(0, 254);
        assert!(Codebook::from_edges(3, unsorted).is_err());
        let mut nan = book.edges().to_vec();
        nan[7] = f32::NAN;
        assert!(Codebook::from_edges(3, nan).is_err());
        assert!(Codebook::fit(std::iter::empty::<&[f64]>()).is_none());
        // No axes at all: one code, no gap.
        let flat = Codebook::fit([&[][..]].into_iter()).unwrap();
        assert_eq!((flat.encode(&[]), flat.gap_sq(&[], 0)), (0, 0.0));
    }

    /// The cell of `code` on axis `j` as `(lo, hi)`.
    fn cell(book: &Codebook, code: u64, j: usize) -> (f64, f64) {
        let shift: u32 = widths(book.dim).take(j).sum();
        let axis = book.axes().nth(j).unwrap();
        let index = (code >> shift) as usize & axis.len();
        let edge = |i: usize| f64::from(axis[i]);
        (
            if index == 0 {
                f64::NEG_INFINITY
            } else {
                edge(index - 1)
            },
            if index == axis.len() {
                f64::INFINITY
            } else {
                edge(index)
            },
        )
    }

    /// A codebook of `dim` axes whose edges are all 0: only its shape
    /// matters to [`Codebook::hilbert`].
    fn flat(dim: usize) -> Codebook {
        let edges = widths(dim).map(|w| (1usize << w) - 1).sum();
        Codebook::from_edges(dim, vec![0.0; edges]).unwrap()
    }

    #[test]
    fn the_hilbert_index_walks_every_cell_one_step_at_a_time() {
        // Two axes of 8 bits: all 65 536 codes onto 0..2^16, one to one,
        // and the curve moves one cell along one axis per step.
        let book = flat(2);
        let mut cell_at = vec![None; 1 << 16];
        for code in 0..1u64 << 16 {
            let index = book.hilbert(code);
            assert!(index < 1 << 16, "{code:#x} -> {index:#x}");
            assert_eq!(cell_at[index as usize].replace(code), None, "{index}");
        }
        let cells: Vec<(i64, i64)> = cell_at
            .iter()
            .map(|code| {
                let code = code.unwrap() as i64;
                (code & 255, code >> 8)
            })
            .collect();
        assert_eq!(cells[0], (0, 0), "the curve starts at the origin");
        for (i, pair) in cells.windows(2).enumerate() {
            let ((x0, y0), (x1, y1)) = (pair[0], pair[1]);
            assert_eq!((x1 - x0).abs() + (y1 - y0).abs(), 1, "step {i}");
        }
    }

    #[test]
    fn the_hilbert_index_tells_mixed_width_cells_apart() {
        // d_r = 12: four 6-bit axes and eight 5-bit ones, a 72-bit index.
        let book = flat(12);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut codes = HashSet::new();
        while codes.len() < 10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            codes.insert(state);
        }
        let indices: HashSet<u128> = codes.iter().map(|&code| book.hilbert(code)).collect();
        assert_eq!(indices.len(), codes.len());
        assert!(indices.iter().all(|&index| index < 1 << 72));
        assert_eq!(flat(0).hilbert(0), 0);
    }

    /// The two bound proptests' fixture: a codebook cut from `n` rows of
    /// `dim` (column 1 repeats column 0, column 2 is constant, at one of
    /// four scales), those rows and four coded after the fact beyond every
    /// column's range, their codes, and four queries — a stored row, one
    /// far outside, one with coordinates exactly on edges, one between.
    struct Fixture {
        book: Codebook,
        rows: Vec<Vec<f64>>,
        codes: Vec<u64>,
        queries: [Vec<f64>; 4],
    }

    fn bound_fixture(dim: usize, n: usize, raw: &[f64], scale: usize, picks: &[usize]) -> Fixture {
        let scale = [1e-9, 1.0, 37.5, 1e12][scale];
        let value = |i: usize, j: usize| match j {
            1 => raw[(i * 7) % raw.len()] * scale,
            2 => scale,
            _ => raw[(i * 7 + j * 13) % raw.len()] * scale,
        };
        let row = |i: usize| (0..dim).map(|j| value(i, j)).collect::<Vec<f64>>();
        let mut rows: Vec<Vec<f64>> = (0..n).map(row).collect();
        let book = Codebook::fit(rows.iter().map(Vec::as_slice)).unwrap();
        rows.extend((0..4).map(|i| {
            row(n + i)
                .iter()
                .map(|v| v * 1e3 + (i as f64 - 1.5) * 9.0 * scale)
                .collect()
        }));
        let codes: Vec<u64> = rows.iter().map(|r| book.encode(r)).collect();
        let mut on_edges = row(picks[0] % n);
        for (j, q) in on_edges.iter_mut().enumerate().take(64) {
            let (lo, hi) = cell(&book, codes[picks[j % 16] % codes.len()], j);
            *q = if lo.is_finite() {
                lo
            } else if hi.is_finite() {
                hi
            } else {
                *q
            };
        }
        let queries = [
            row(picks[1] % n),
            row(picks[2]).iter().map(|v| v * 50.0 - scale).collect(),
            on_edges,
            row(picks[3])
                .iter()
                .zip(row(picks[4]))
                .map(|(a, b)| 0.5 * (a + b))
                .collect(),
        ];
        Fixture {
            book,
            rows,
            codes,
            queries,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sorting a column by its ordered keys is sorting it by
        /// `f64::total_cmp`: the edges `fit` cuts are that sort's quantiles
        /// to the bit, over any bit patterns — both zeros, subnormals,
        /// infinities and NaNs of either sign, and runs of duplicates.
        #[test]
        fn fit_cuts_the_edges_a_total_cmp_sort_cuts(
            dim in 1usize..14,
            n in 1usize..300,
            words in proptest::collection::vec(0u64..u64::MAX, 1..64),
            kinds in proptest::collection::vec(0usize..10, 1..64),
        ) {
            let tiny = f64::MIN_POSITIVE / 4.0;
            let value = |i: usize| {
                let word = words[i % words.len()];
                match kinds[(i / 3) % kinds.len()] {
                    0 => 0.0,
                    1 => -0.0,
                    2 => if word & 1 == 0 { tiny } else { -tiny },
                    3 => if word & 1 == 0 { f64::INFINITY } else { f64::NEG_INFINITY },
                    4 => if word & 1 == 0 { f64::NAN } else { -f64::NAN },
                    5 | 6 => f64::from_bits(word),
                    _ => (word % 17) as f64 - 8.0,
                }
            };
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..dim).map(|j| value(i * 31 + j * 7)).collect())
                .collect();
            let book = Codebook::fit(rows.iter().map(Vec::as_slice)).unwrap();
            let mut want = Vec::new();
            for (j, width) in widths(dim).enumerate() {
                let mut column: Vec<f64> = rows.iter().map(|row| row[j]).collect();
                column.sort_unstable_by(f64::total_cmp);
                let cells = 1usize << width;
                want.extend((1..cells).map(|i| column[i * column.len() / cells] as f32));
            }
            let bits = |edges: &[f32]| edges.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(book.edges()), bits(&want));
        }

        /// For rows the codebook was cut from and rows coded after the
        /// fact from far outside their range, for queries inside, outside
        /// and exactly on edges, with duplicate columns and down to a
        /// one-row partition: every coordinate lies in its cell, and the
        /// bound is at most the distance — as `f64`s, no tolerance.
        #[test]
        fn the_code_bound_never_exceeds_the_distance(
            dim in 1usize..=80,
            n in 1usize..60,
            raw in proptest::collection::vec(-1.0f64..1.0, 80 * 8),
            scale in 0usize..4,
            proj_sq in 0.0f64..4.0,
            picks in proptest::collection::vec(0usize..10_000, 16),
        ) {
            let Fixture { book, rows, codes, queries } = bound_fixture(dim, n, &raw, scale, &picks);
            prop_assert_eq!(
                &Codebook::from_edges(dim, book.edges().to_vec()).unwrap(),
                &book
            );
            for (r, &code) in rows.iter().zip(&codes) {
                for (j, &p) in r.iter().enumerate().take(64) {
                    let (lo, hi) = cell(&book, code, j);
                    prop_assert!(lo <= p && p <= hi, "axis {j}: {lo} <= {p} <= {hi}");
                }
            }
            let mut table = vec![f64::NAN; 3];
            for q in &queries {
                table.truncate(3);
                book.gaps_into(q, &mut table, &mut Vec::new());
                for (r, &code) in rows.iter().zip(&codes) {
                    let bound = (proj_sq + book.gap_sq(&table[3..], code)).sqrt();
                    let dist = mmdr_linalg::reduced_dist(proj_sq, q, r);
                    prop_assert!(bound <= dist, "bound {bound:e} > distance {dist:e}");
                }
            }
            prop_assert!(table[..3].iter().all(|t| t.is_nan()), "the table is appended to");
        }

        /// The cell a projection is coded in holds the value a record
        /// stores for it, its nearest `f32` — over rows of plain values with
        /// more precision than an `f32`, values that are `f32`s already (so
        /// a quantile row lies on its own edge), values an `f64` ulp off an
        /// edge (which round onto it), values near `f32::MAX` (those above
        /// it within half an ulp round down to it) and subnormals of both
        /// widths: `lo ≤ f32(p) ≤ hi` on every axis, and over the stored
        /// value the near table's sum is `≤` its `l2_dist_sq` from a query,
        /// the far table's `≥`, as `f64`s, no tolerance.
        #[test]
        fn a_projection_code_holds_its_stored_value(
            dim in 1usize..=16,
            n in 1usize..80,
            words in proptest::collection::vec(0u64..u64::MAX, 1..64),
            kinds in proptest::collection::vec(0usize..7, 1..64),
            picks in proptest::collection::vec(0usize..10_000, 4),
        ) {
            let max = f64::from(f32::MAX);
            let value = |i: usize| {
                let word = words[i % words.len()];
                let sign = if word >> 63 == 0 { 1.0 } else { -1.0 };
                sign * match kinds[(i / 3) % kinds.len()] {
                    0 => (word % 1_000_003) as f64 / 1_000_003.0,
                    1 => f64::from(((word % 4001) as f32) / 1024.0),
                    2 => max - (word % 1000) as f64 * 2f64.powi(100),
                    3 => max + (word % 8) as f64 * 2f64.powi(100),
                    4 => (word % (1 << 30)) as f64 * 2f64.powi(-155),
                    5 => f64::from_bits(word % (1 << 52)),
                    _ => 0.0,
                }
            };
            let mut rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..dim).map(|j| value(i * 31 + j * 7)).collect())
                .collect();
            let book = Codebook::fit(rows.iter().map(Vec::as_slice)).unwrap();
            // Rows an f64 ulp either side of an edge and on it, axis by axis.
            for (k, &pick) in picks.iter().enumerate() {
                let row = (0..dim)
                    .map(|j| {
                        let axis = book.axes().nth(j).unwrap();
                        let edge = f64::from(axis[(pick + j) % axis.len()]);
                        [edge.next_down(), edge, edge.next_up()][(k + j) % 3]
                    })
                    .collect();
                rows.push(row);
            }
            let stored = |row: &[f64]| row.iter().map(|&p| f64::from(p as f32)).collect::<Vec<_>>();
            let queries = [rows[0].clone(), rows[n].clone(), vec![0.5; dim], rows[n / 2].iter().map(|v| -v).collect()];
            for row in &rows {
                let (code, s) = (book.encode(row), stored(row));
                prop_assert!(s.iter().all(|x| x.is_finite()), "{row:?} overflows");
                for (j, &x) in s.iter().enumerate() {
                    let (lo, hi) = cell(&book, code, j);
                    prop_assert!(lo <= x && x <= hi, "axis {j}: {lo} <= {x} <= {hi} for {}", row[j]);
                }
                for q in &queries {
                    let (mut near, mut far) = (Vec::new(), Vec::new());
                    book.gaps_into(q, &mut near, &mut far);
                    let dist = mmdr_linalg::l2_dist_sq(q, &s);
                    let (lower, upper) = (book.gap_sq(&near, code), book.gap_sq(&far, code));
                    prop_assert!(lower <= dist, "near {lower:e} > {dist:e}");
                    prop_assert!(upper >= dist, "far {upper:e} < {dist:e}");
                }
            }
        }

        /// The far-face table, over the same rows and queries: the radicand
        /// it gives is never below the one `reduced_dist` takes for the
        /// coded row — as `f64`s, no tolerance — and both tables are filled
        /// in one pass, the near one as it would be alone. A codebook wider
        /// than 64 coordinates, which leaves some uncoded, yields no far
        /// table.
        #[test]
        fn the_far_face_bound_never_falls_below_the_distance(
            dim in 1usize..=80,
            n in 1usize..60,
            raw in proptest::collection::vec(-1.0f64..1.0, 80 * 8),
            scale in 0usize..4,
            proj_sq in 0.0f64..4.0,
            picks in proptest::collection::vec(0usize..10_000, 16),
        ) {
            let Fixture { book, rows, codes, queries } = bound_fixture(dim, n, &raw, scale, &picks);
            for q in &queries {
                let (mut near, mut far) = (Vec::new(), vec![f64::NAN]);
                book.gaps_into(q, &mut near, &mut far);
                let mut alone = Vec::new();
                book.gaps_into(q, &mut alone, &mut Vec::new());
                prop_assert_eq!(&near, &alone);
                prop_assert!(far[0].is_nan(), "the far table is appended to");
                if dim > 64 {
                    prop_assert_eq!(far.len(), 1);
                    continue;
                }
                prop_assert_eq!(far.len(), near.len() + 1);
                for (r, &code) in rows.iter().zip(&codes) {
                    let upper = proj_sq + book.gap_sq(&far[1..], code);
                    let radicand = proj_sq + mmdr_linalg::l2_dist_sq(q, r);
                    prop_assert!(upper >= radicand, "upper {upper:e} < radicand {radicand:e}");
                    prop_assert!(upper.sqrt() >= mmdr_linalg::reduced_dist(proj_sq, q, r));
                }
            }
        }
    }
}
