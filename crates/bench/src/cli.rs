//! Minimal flag parsing shared by the figure binaries (no external CLI
//! crate — the allowed dependency set is deliberately small).

/// Common harness arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload scale: 0 = quick smoke, 1 = default, 2 = paper-size.
    pub scale: u8,
    /// Override for the number of data points.
    pub n: Option<usize>,
    /// Override for the number of queries.
    pub queries: Option<usize>,
    /// Override for K in KNN.
    pub k: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Free-form `--dataset` selector (figures 8–10 take `synthetic` or
    /// `histogram`).
    pub dataset: Option<String>,
    /// Directory for index snapshots (`--index-dir`): harnesses reuse a
    /// saved index when a matching snapshot exists instead of rebuilding.
    pub index_dir: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: 1,
            n: None,
            queries: None,
            k: None,
            seed: 0,
            dataset: None,
            index_dir: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args()`-style flags. Unknown flags abort with a
    /// usage message (figure binaries have no other inputs).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => out.scale = 0,
                "--paper" => out.scale = 2,
                "--n" => out.n = Some(take_value(&mut it, "--n")?.parse().map_err(bad("--n"))?),
                "--queries" => {
                    out.queries =
                        Some(take_value(&mut it, "--queries")?.parse().map_err(bad("--queries"))?)
                }
                "--k" => out.k = Some(take_value(&mut it, "--k")?.parse().map_err(bad("--k"))?),
                "--seed" => {
                    out.seed = take_value(&mut it, "--seed")?.parse().map_err(bad("--seed"))?
                }
                "--dataset" => out.dataset = Some(take_value(&mut it, "--dataset")?),
                "--index-dir" => out.index_dir = Some(take_value(&mut it, "--index-dir")?),
                other => {
                    return Err(format!(
                        "unknown flag {other}; known: --quick --paper --n N --queries Q --k K --seed S --dataset NAME --index-dir DIR"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with the usage message on
    /// error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Picks a size by scale: `(quick, default, paper)`.
    pub fn pick(&self, quick: usize, default: usize, paper: usize) -> usize {
        match self.scale {
            0 => quick,
            1 => default,
            _ => paper,
        }
    }
}

fn take_value(
    it: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    flag: &str,
) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn bad(flag: &'static str) -> impl Fn(std::num::ParseIntError) -> String {
    move |e| format!("{flag}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, 1);
        assert_eq!(a.n, None);
        assert_eq!(a.pick(1, 2, 3), 2);
    }

    #[test]
    fn flags() {
        let a = parse(&[
            "--paper",
            "--n",
            "500",
            "--queries",
            "10",
            "--k",
            "5",
            "--seed",
            "9",
            "--dataset",
            "histogram",
            "--index-dir",
            "/tmp/idx",
        ])
        .unwrap();
        assert_eq!(a.scale, 2);
        assert_eq!(a.n, Some(500));
        assert_eq!(a.queries, Some(10));
        assert_eq!(a.k, Some(5));
        assert_eq!(a.seed, 9);
        assert_eq!(a.dataset.as_deref(), Some("histogram"));
        assert_eq!(a.index_dir.as_deref(), Some("/tmp/idx"));
        assert_eq!(a.pick(1, 2, 3), 3);
        assert_eq!(parse(&["--quick"]).unwrap().pick(1, 2, 3), 1);
    }

    #[test]
    fn errors() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--n"]).is_err());
        assert!(parse(&["--n", "abc"]).is_err());
    }
}
