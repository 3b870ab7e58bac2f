//! Empty placeholder for `rayon`: the fan-out runs on `std::thread::scope`
//! (`cods_query::par`). It stays only while `benchmark/Cargo.lock` lists it
//! (see the root `Cargo.toml`); the next change to the benchmark deletes it.
#![forbid(unsafe_code)]
