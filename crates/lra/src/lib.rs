//! # scissor-lra
//!
//! **Rank clipping** — step 1 of the
//! [Group Scissor (DAC 2017)] framework.
//!
//! Rank clipping integrates low-rank approximation into training: every `S`
//! iterations, each layer's `U` factor is re-analyzed (PCA by default) and
//! clipped to the smallest rank that reconstructs it within a tolerable
//! error `ε`; the following `S` training iterations recover the small
//! perturbation. Layers converge to their optimal ranks with no accuracy
//! loss, shrinking crossbar area to 13.62 % (LeNet) / 51.81 % (ConvNet) in
//! the paper.
//!
//! Provided here:
//!
//! * [`LraMethod`] — PCA / SVD back-ends, and [`LraFit`], one fit that
//!   serves both the rank search and the factor split;
//! * [`convert`] — network surgery (full-rank conversion, the Direct-LRA
//!   baseline of Table 1);
//! * [`rank_clip`] — Algorithm 2, with per-clip-step traces (Fig. 3).
//!
//! [Group Scissor (DAC 2017)]: https://arxiv.org/abs/1702.03443

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod convert;

mod clip;
mod error;
mod method;

pub use clip::{rank_clip, ClipRecord, RankClipConfig, RankClipOutcome};
pub use convert::{direct_lra, factorize_layer, layer_kind, layer_rank, to_full_rank, LayerKind};
pub use error::{LraError, Result};
pub use method::{LraFit, LraMethod};
