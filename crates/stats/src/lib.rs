//! Self-contained numerics used by the paper's analytical model.
//!
//! The paper's §5.3 analysis needs the Gauss error function, normal and
//! log-normal laws, and numerical root finding for Eq. 10; this crate
//! provides them without external math dependencies, plus quadrature and
//! online summary statistics for the Monte-Carlo cross-checks.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binomial;
pub mod distributions;
pub mod erf;
pub mod quadrature;
pub mod rng;
pub mod rootfind;
pub mod seedseq;
pub mod summary;

pub use binomial::{conditional_probabilities, Binomial, Multinomial, PreparedBinomial};
pub use distributions::{LogNormal, Normal};
pub use erf::{erf, erfc, normal_cdf, normal_pdf};
pub use quadrature::integrate_simpson;
pub use rng::seeded_rng;
pub use rootfind::{bisect, brent, RootError};
pub use seedseq::SeedSequence;
pub use summary::Summary;
