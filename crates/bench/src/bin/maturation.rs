//! §7.1.3: maturation quickness — invocations needed per function before
//! the §5.3 rule (90% EO, 50% of unders within one interval) holds.

use ofc_bench::mlx::maturation;
use ofc_bench::report;

fn main() {
    let r = maturation(2000, 3);
    println!("Maturation quickness (cap 2000 invocations)\n");
    let rows: Vec<Vec<String>> = r
        .per_function
        .iter()
        .map(|(name, m)| {
            vec![
                name.clone(),
                m.map(|n| n.to_string()).unwrap_or_else(|| ">2000".into()),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(&["function", "invocations to maturity"], &rows)
    );
    println!(
        "median {:.0}   p75 {:.0}   p95 {:.0}   matured at the 100-invocation floor: {}",
        r.median, r.p75, r.p95, r.matured_at_floor
    );
    println!(
        "\nPaper reference: median 100 (11/19 functions at the floor), 75% < 250,\n\
         95% < 450 invocations."
    );
    report::save_json("maturation", &r);
}
