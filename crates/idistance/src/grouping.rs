//! Which heap page each of a partition's records is written on, a function
//! of its codes alone, so a load writes it and an open learns it again from
//! the leaves ([`crate::IDistanceIndex`]'s placement table) with nothing
//! stored.
//!
//! A partition of `n` rows fills `⌈n / per_page⌉` heap pages, each page a
//! *group*: every group holds `per_page` records but the last, which holds
//! the remainder. Cutting the rows' Hilbert curve ([`Codebook::hilbert`])
//! into page-sized runs splits only some of the coded axes, so each page is
//! a slab; a few balanced Lloyd rounds regroup that cut into compact,
//! page-sized cells. A row is placed by its code's cell midpoint
//! ([`Codebook::midpoints`]). A round moves every group's centroid to
//! its members' mean and puts each row, nearest first over all rows, into
//! the nearest of [`NEAREST`] candidate groups that still has room — the
//! centroids nearest its current group's, found among the [`WINDOW`] groups
//! around it in seed order — or, when all of those are full, into the
//! nearest group with room.
//!
//! Bounded, with no `n × groups` table: a round costs `O(n · NEAREST · d)`
//! time for its distances — a row refused by a full candidate works its
//! candidates out again, at most `NEAREST` times — plus, for the rare row
//! every candidate of which fills first, a scan of the groups with room.
//! The work holds `O(n)` memory beside the codes: a row's midpoint is
//! decoded from its code where it is wanted, never kept. An `n × d` table
//! of them, 240 KB for a 5 000-row partition at `d = 12`, freed after the
//! rounds, raised glibc's mmap threshold to its size early in a build and
//! `knn_resident`'s `peak_rss_mb` by 2 MiB.

use crate::codes::Codebook;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Balanced Lloyd rounds after the Hilbert seed.
const ROUNDS: usize = 4;
/// Candidate groups a row weighs in a round.
const NEAREST: usize = 12;
/// Groups, in seed order around a row's own, its candidates are drawn from.
const WINDOW: usize = 64;

/// The group of each of a partition's rows, given their `codes` in leaf
/// (key) order, one a key-order rank: group `g` is the `g`-th page of the
/// partition's run, and holds `per_page` rows but the last, which holds
/// the remainder.
pub(crate) fn page_groups(book: &Codebook, codes: &[u64], per_page: usize) -> Vec<u32> {
    let n = codes.len();
    let per_page = per_page.max(1);
    let groups = n.div_ceil(per_page);
    let mut group = vec![0u32; n];
    if groups > 1 {
        // The seed: the Hilbert order of the codes, ties in key order, cut
        // into pages.
        let hilbert: Vec<u128> = codes.iter().map(|&code| book.hilbert(code)).collect();
        let mut seed: Vec<u32> = (0..n as u32).collect();
        seed.sort_unstable_by_key(|&rank| (hilbert[rank as usize], rank));
        for (at, &rank) in seed.iter().enumerate() {
            group[rank as usize] = (at / per_page) as u32;
        }
        let rooms: Vec<usize> = (0..groups)
            .map(|g| per_page.min(n - g * per_page))
            .collect();
        // A codebook of no axes puts every row at one point: the seed stands.
        let d = book.coded_axes();
        if d > 0 {
            let table = book.midpoints();
            let point = |row: usize, out: &mut [f32]| book.cells_into(&table, codes[row], out);
            for _ in 0..ROUNDS {
                regroup((&point, d), &rooms, &mut group);
            }
        }
    }
    group
}

/// `‖a − b‖²`, its terms summed in four lanes (term `j` in lane `j % 4`),
/// four at a time, so a compiler keeps the lanes in one vector register.
fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0f32; 4];
    let ((a4, a_tail), (b4, b_tail)) = (a.as_chunks::<4>(), b.as_chunks::<4>());
    for (x, y) in a4.iter().zip(b4) {
        for j in 0..4 {
            lanes[j] += (x[j] - y[j]) * (x[j] - y[j]);
        }
    }
    for (lane, (x, y)) in lanes.iter_mut().zip(a_tail.iter().zip(b_tail)) {
        *lane += (x - y) * (x - y);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// A distance and a number as one `u64` that orders as the pair: the
/// distance is not negative (nor NaN), so its bits order as it does.
fn key(dist: f32, low: u32) -> u64 {
    u64::from(dist.to_bits()) << 32 | u64::from(low)
}

/// One balanced Lloyd round over the rows' points (`point(row, out)`
/// writes a row's `d > 0` coordinates), moving rows between groups of
/// sizes `rooms` in `group`. Every buffer is sized once, up front: grown by
/// doubling, they left the arenas of `ingest_mixed`'s fold threads
/// fragmented and its `peak_rss_mb` ~2 MiB higher.
fn regroup<F: Fn(usize, &mut [f32])>((point, d): (&F, usize), rooms: &[usize], group: &mut [u32]) {
    let (n, groups) = (group.len(), rooms.len());
    let mut buf = [0f32; 64];
    let mut sums = vec![0f64; groups * d];
    for (row, &g) in group.iter().enumerate() {
        point(row, &mut buf[..d]);
        let sum = &mut sums[g as usize * d..][..d];
        sum.iter_mut()
            .zip(&buf)
            .for_each(|(s, &p)| *s += f64::from(p));
    }
    let mut centroids = Vec::with_capacity(groups * d);
    centroids.extend(
        (sums.chunks_exact(d).zip(rooms))
            .flat_map(|(sum, &room)| sum.iter().map(move |s| (s / room as f64) as f32)),
    );
    let centroid = |g: u32| &centroids[g as usize * d..][..d];
    // Each group's candidates: the centroids nearest its own (itself
    // first, at 0) among the window of groups around it.
    let k = NEAREST.min(groups);
    let mut near = Vec::with_capacity(groups * k);
    let mut window = Vec::with_capacity(WINDOW);
    for g in 0..groups as u32 {
        let lo = (g as usize)
            .saturating_sub(WINDOW / 2)
            .min(groups.saturating_sub(WINDOW));
        window.clear();
        window.extend(
            (lo as u32..groups.min(lo + WINDOW) as u32)
                .map(|h| key(dist_sq(centroid(g), centroid(h)), h)),
        );
        window.sort_unstable();
        near.extend(window[..k].iter().map(|&pair| pair as u32));
    }
    let mut near_centroids = Vec::with_capacity(groups * k * d);
    for &h in &near {
        near_centroids.extend_from_slice(centroid(h));
    }
    // A row's nearest candidate from `from` on (past the last it was
    // refused by), as `key(distance, group)`: worked out again on a
    // refusal, which is rare, so no `n × NEAREST` table is kept.
    let next = |row: usize, group: &[u32], from: u64| {
        let (mut at, g) = ([0f32; 64], group[row] as usize);
        point(row, &mut at[..d]);
        let own = near[g * k..][..k]
            .iter()
            .zip(near_centroids[g * k * d..].chunks_exact(d));
        let keys = own.map(|(&h, centroid)| key(dist_sq(&at[..d], centroid), h));
        keys.filter(|&pair| pair >= from).min()
    };
    // Nearest first over every row's candidates: a row waits as
    // `key(distance, row)` at the candidate `trying[row]`, and takes it if
    // it has room.
    let mut rooms = rooms.to_vec();
    let mut trying = vec![0u32; n];
    let wait = |trying: &mut [u32], row: usize, pair: u64| {
        trying[row] = pair as u32;
        pair >> 32 << 32 | row as u64
    };
    let mut first = Vec::with_capacity(n);
    first.extend((0..n).filter_map(|row| Some(wait(&mut trying, row, next(row, group, 0)?))));
    first.sort_unstable();
    let mut first = first.into_iter().peekable();
    let mut waiting = BinaryHeap::with_capacity(n);
    let mut left = Vec::new();
    loop {
        let turn = match (first.peek(), waiting.peek()) {
            (Some(a), Some(Reverse(b))) if b < a => waiting.pop().map(|Reverse(b)| b),
            (Some(_), _) => first.next(),
            (None, _) => waiting.pop().map(|Reverse(b)| b),
        };
        let Some(turn) = turn else { break };
        let (row, h) = (turn as u32 as usize, trying[turn as u32 as usize]);
        if rooms[h as usize] > 0 {
            rooms[h as usize] -= 1;
            group[row] = h;
        } else if let Some(again) = next(row, group, (turn >> 32 << 32 | u64::from(h)) + 1) {
            waiting.push(Reverse(wait(&mut trying, row, again)));
        } else {
            left.push(row);
        }
    }
    // Every candidate of these was full: the nearest group with room. As
    // many places are left as rows, so there is always one.
    left.sort_unstable();
    let mut open: Vec<u32> = (0..groups as u32)
        .filter(|&g| rooms[g as usize] > 0)
        .collect();
    for row in left {
        point(row, &mut buf[..d]);
        open.retain(|&g| rooms[g as usize] > 0);
        let h = (open.iter())
            .map(|&g| key(dist_sq(&buf[..d], centroid(g)), g))
            .min()
            .map_or(0, |pair| pair as u32);
        rooms[h as usize] -= 1;
        group[row] = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` rows of `dim` from a xorshift stream, in `clumps` clumps.
    fn rows(n: usize, dim: usize, clumps: usize, mut state: u64) -> Vec<Vec<f64>> {
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100_003) as f64 / 100_003.0
        };
        let centres: Vec<Vec<f64>> = (0..clumps.max(1))
            .map(|_| (0..dim).map(|_| 10.0 * draw()).collect())
            .collect();
        (0..n)
            .map(|i| {
                centres[i % centres.len()]
                    .iter()
                    .map(|c| c + draw())
                    .collect()
            })
            .collect()
    }

    fn codes(rows: &[Vec<f64>]) -> (Codebook, Vec<u64>) {
        let book = Codebook::fit(rows.iter().map(Vec::as_slice)).unwrap();
        let codes = rows.iter().map(|row| book.encode(row)).collect();
        (book, codes)
    }

    /// Checks `groups` puts `n` rows on pages of `per_page`: every page
    /// full but the last, which holds the remainder.
    fn assert_groups(groups: &[u32], n: usize, per_page: usize) {
        assert_eq!(groups.len(), n);
        let mut sizes = vec![0; n.div_ceil(per_page)];
        groups.iter().for_each(|&g| sizes[g as usize] += 1);
        let want = (0..sizes.len()).map(|g| per_page.min(n - g * per_page));
        assert!(sizes.iter().copied().eq(want), "{sizes:?}");
    }

    #[test]
    fn every_page_is_full_but_the_last() {
        for (n, dim, per_page, clumps) in [
            (0, 4, 10, 1),
            (1, 4, 10, 1),
            (10, 4, 10, 3),
            (11, 4, 10, 3),
            (997, 12, 85, 5),
            (400, 70, 14, 4),
            (300, 3, 1, 2),
            (500, 12, 7, 0),
        ] {
            let rows = rows(n.max(1), dim, clumps, 0x9E37_79B9_7F4A_7C15);
            let (book, mut codes) = codes(&rows);
            codes.truncate(n);
            let groups = page_groups(&book, &codes, per_page);
            assert_groups(&groups, n, per_page);
            assert_eq!(
                groups,
                page_groups(&book, &codes, per_page),
                "a function of its input"
            );
        }
        // The same code for every row, and a codebook of no axes: the seed
        // stands, each page a run of ranks.
        let (book, _) = codes(&rows(50, 5, 1, 7));
        let groups = page_groups(&book, &[42; 500], 85);
        assert!(groups.iter().copied().eq((0..500).map(|rank| rank / 85)));
        let flat = Codebook::fit([&[][..]].into_iter()).unwrap();
        let groups = page_groups(&flat, &[0; 30], 8);
        assert!(groups.iter().copied().eq((0..30).map(|rank| rank / 8)));
        // Any code a damaged leaf could hold has a place.
        let (book, _) = codes(&rows(50, 12, 1, 9));
        let codes: Vec<u64> = (0..300u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        assert_groups(&page_groups(&book, &codes, 16), 300, 16);
    }

    #[test]
    fn the_rounds_leave_pages_more_compact_than_the_hilbert_cut() {
        let (n, per_page) = (5000, 85);
        let rows = rows(n, 12, 5, 0x2545_F491_4F6C_DD1D);
        let (book, codes) = codes(&rows);
        let table = book.midpoints();
        let mut points = vec![[0f32; 12]; n];
        for (point, &code) in points.iter_mut().zip(&codes) {
            book.cells_into(&table, code, point);
        }
        // Summed over pages, each point's squared distance to its page's
        // mean.
        let spread = |order: &[u32]| -> f64 {
            let mut total = 0.0;
            for page in order.chunks(per_page) {
                let point = |rank: u32| &points[rank as usize];
                let mut mean = [0.0; 12];
                for &rank in page {
                    mean.iter_mut()
                        .zip(point(rank))
                        .for_each(|(m, &p)| *m += f64::from(p));
                }
                mean.iter_mut().for_each(|m| *m /= page.len() as f64);
                for &rank in page {
                    let p = point(rank);
                    total += (0..12)
                        .map(|j| (f64::from(p[j]) - mean[j]).powi(2))
                        .sum::<f64>();
                }
            }
            total
        };
        let mut cut: Vec<u32> = (0..n as u32).collect();
        cut.sort_by_key(|&rank| (book.hilbert(codes[rank as usize]), rank));
        let groups = page_groups(&book, &codes, per_page);
        let mut grouped: Vec<u32> = (0..n as u32).collect();
        grouped.sort_by_key(|&rank| (groups[rank as usize], rank));
        let (seed, grouped) = (spread(&cut), spread(&grouped));
        assert!(
            grouped < 0.8 * seed,
            "grouped {grouped} against the cut's {seed}"
        );
    }
}
