//! Pass 3: `streams` — terminal lowering to first-class stream-command
//! IR.
//!
//! The pass runs the shared rewriter (see [`crate::apply`]) at
//! `Lowering::Tape` depth: region loops are restructured into layers,
//! `FWD-Stream`/`REV-Stream` commands and barriers are inserted, and
//! every tape access becomes an explicit [`tapeflow_ir::Op::TapeStore`]
//! or [`tapeflow_ir::Op::TapeLoad`]. The result is a complete, runnable
//! program state — it verifies, parses, pretty-prints, lints, and
//! interprets to the same gradients as the final scratchpad-indexed
//! form — not a side-channel snapshot of a fused walk. Pass 4
//! ([`crate::spad_index`]) consumes it as its sole input.

use crate::apply::{rewrite, Lowering};
use crate::compress::TapeEncoding;
use crate::layering::LayerPlan;
use crate::{CompileOptions, CoreError};
use tapeflow_autodiff::Gradient;
use tapeflow_ir::{Function, InstId};

/// The `streams` pass's terminal IR plus the plan context Pass 4 needs.
#[derive(Clone, Debug)]
pub struct StreamsProgram {
    /// The stream-command program (`tape.store`/`tape.load`/streams).
    pub func: Function,
    /// The FWD/REV phase barrier instruction in [`StreamsProgram::func`].
    pub phase_barrier: InstId,
    /// The (possibly compressed) layer plan the lowering followed.
    pub plan: LayerPlan,
    /// Options the program was lowered under.
    pub options: CompileOptions,
    /// Pass 5 encoding baked into the lowering, if one ran.
    pub encoding: Option<TapeEncoding>,
}

/// Lowers the gradient to the stream-command terminal form.
///
/// # Errors
///
/// [`CoreError::Internal`] if the lowered function fails verification.
pub fn lower_streams(
    grad: &Gradient,
    plan: LayerPlan,
    options: CompileOptions,
    encoding: Option<TapeEncoding>,
) -> Result<StreamsProgram, CoreError> {
    let (func, phase_barrier) = rewrite(grad, &plan, options, Lowering::Tape, encoding.as_ref())?;
    Ok(StreamsProgram {
        func,
        phase_barrier,
        plan,
        options,
        encoding,
    })
}
