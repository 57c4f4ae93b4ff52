use deadlock_fuzzer::{Config, DeadlockFuzzer};
fn main() {
    for b in df_benchmarks::table1_suite() {
        let f = DeadlockFuzzer::from_ref(b.program.clone(), Config::default());
        let d = f.baseline(20).expect("trials > 0").deadlocks;
        println!("{:<22} {}/20", b.name, d);
    }
}
