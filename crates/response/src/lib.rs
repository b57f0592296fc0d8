#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-coupled numerics mirror the published algorithms

//! # hnd-response
//!
//! The response-matrix domain model of the ability-discovery problem
//! (Section II-A of the paper).
//!
//! `m` users each choose at most one of `kᵢ` options for each of `n`
//! heterogeneous items. The canonical representation is [`ResponseMatrix`];
//! its one-hot *binary response matrix* `C` (an `m × Σkᵢ` 0/1 matrix with at
//! most `n` ones per row) is exposed as a CSR matrix via
//! [`ResponseMatrix::to_binary_csr`], and the row/column counts needed for
//! the `Crow`/`Ccol` normalizations of AvgHITS are precomputed.
//!
//! For serving workloads where responses arrive as a *stream of edits*,
//! [`ResponseLog`] is the versioned source of truth: it commits edits under
//! a monotone version counter and snapshots [`VersionedMatrix`] values
//! whose [`ResponseDelta`]s drive [`ResponseOps::apply_delta`] — the
//! in-place `O(nnz(delta))` patch of the kernel-engine pattern and its
//! degree scalings that the incremental ranking engine (`hnd-service`)
//! builds on.

mod builder;
mod connectivity;
pub mod log;
mod matrix;
pub mod ops;
pub mod order;
pub mod orientation;
mod ranking;

pub use builder::ResponseMatrixBuilder;
pub use connectivity::ConnectivityReport;
pub use log::{ResponseDelta, ResponseEdit, ResponseLog, VersionedMatrix};
pub use matrix::ResponseMatrix;
pub use ops::{delta_pattern_edits, KernelWorkspace, ResponseOps};
pub use orientation::{group_choice_entropy, orient_by_decile_entropy};
pub use ranking::{rank_many, AbilityRanker, RankError, Ranking};

/// Errors raised while constructing or validating response matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseError {
    /// A user row does not have exactly `n_items` entries.
    WrongRowLength {
        /// Index of the offending user.
        user: usize,
        /// Expected number of entries (`n_items`).
        expected: usize,
        /// Number of entries provided.
        got: usize,
    },
    /// A chosen option index is `≥ kᵢ` for its item.
    OptionOutOfRange {
        /// User making the choice.
        user: usize,
        /// Item being answered.
        item: usize,
        /// The out-of-range option index.
        option: u16,
        /// Number of options the item actually has.
        num_options: u16,
    },
    /// The matrix has no items.
    NoItems,
    /// The matrix has no users.
    NoUsers,
    /// An item was declared with zero options.
    EmptyItem {
        /// The offending item index.
        item: usize,
    },
    /// `options_per_item` length does not match `n_items`.
    OptionsLengthMismatch {
        /// Expected length (`n_items`).
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// A user/item index lies outside the roster (serving-layer input
    /// validation; the in-process builder/log APIs treat this as a
    /// programming error and panic instead).
    IndexOutOfBounds {
        /// The offending user index.
        user: usize,
        /// The offending item index.
        item: usize,
        /// Number of users in the roster.
        n_users: usize,
        /// Number of items in the roster.
        n_items: usize,
    },
    /// A delta edit does not chain onto the matrix's current state (its
    /// `from` disagrees with the stored choice, or the cell is out of
    /// bounds).
    DeltaMismatch {
        /// User of the offending edit.
        user: usize,
        /// Item of the offending edit.
        item: usize,
    },
    /// A [`ResponseLog::compact_range`] request reaches outside the
    /// retained history (inverted range, past the head, or behind the
    /// truncation point) — the client must catch up from a full snapshot.
    HistoryUnavailable {
        /// Requested range start (exclusive).
        from: u64,
        /// Requested range end (inclusive).
        to: u64,
        /// Oldest version the log can still compact from.
        base: u64,
        /// The log's head version.
        head: u64,
    },
}

impl std::fmt::Display for ResponseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResponseError::WrongRowLength { user, expected, got } => write!(
                f,
                "user {user}: row has {got} entries, expected {expected}"
            ),
            ResponseError::OptionOutOfRange {
                user,
                item,
                option,
                num_options,
            } => write!(
                f,
                "user {user}, item {item}: option {option} out of range (item has {num_options} options)"
            ),
            ResponseError::NoItems => write!(f, "response matrix has no items"),
            ResponseError::NoUsers => write!(f, "response matrix has no users"),
            ResponseError::EmptyItem { item } => {
                write!(f, "item {item} declared with zero options")
            }
            ResponseError::OptionsLengthMismatch { expected, got } => write!(
                f,
                "options_per_item has length {got}, expected {expected}"
            ),
            ResponseError::IndexOutOfBounds {
                user,
                item,
                n_users,
                n_items,
            } => write!(
                f,
                "cell (user {user}, item {item}) outside the {n_users}x{n_items} roster"
            ),
            ResponseError::DeltaMismatch { user, item } => write!(
                f,
                "delta edit at (user {user}, item {item}) does not chain onto the current state"
            ),
            ResponseError::HistoryUnavailable {
                from,
                to,
                base,
                head,
            } => write!(
                f,
                "cannot compact versions {from}..{to}: retained history covers {base}..{head}"
            ),
        }
    }
}

impl std::error::Error for ResponseError {}
