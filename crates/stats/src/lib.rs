//! Self-contained numerics used by the paper's analytical model.
//!
//! The paper's §5.3 analysis needs the Gauss error function and numerical
//! root finding for Eq. 10; this crate provides them without external
//! math dependencies, plus Simpson quadrature, the exact binomial count
//! sampler behind churn marking, and the counter-based seed streams that
//! make every Monte Carlo thread-count invariant.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod binomial;
mod erf;
mod quadrature;
mod rng;
mod rootfind;
mod seedseq;

pub use binomial::{Binomial, PreparedBinomial};
pub use erf::erf;
pub use quadrature::integrate_simpson;
pub use rng::seeded_rng;
pub use rootfind::{brent, RootError};
pub use seedseq::SeedSequence;
