//! A counting [`Llm`] wrapper: the `llm` layer measured from outside.
//!
//! Every session's model is wrapped so the benchmark sees each
//! `Llm::complete` call the server makes on a miss: it counts calls and
//! tokens, times the call, and prices it with the paper's cost model
//! (`nemo_core::cost`, GPT-4 list prices). The tally is shared with the
//! benchmark through an `Rc`, since the server owns the sessions.

use nemo_core::cost::{price_request, PriceTable};
use nemo_core::{Llm, LlmResponse};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What the wrapped models did, summed over every session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LlmTally {
    /// `complete` calls.
    pub calls: u64,
    /// Prompt tokens sent.
    pub prompt_tokens: u64,
    /// Completion tokens received.
    pub completion_tokens: u64,
    /// Dollars under [`PriceTable::GPT4`].
    pub usd: f64,
    /// Wall time of each call, in nanoseconds.
    pub complete_nanos: Vec<u64>,
}

/// A handle on the shared tally.
pub type Meter = Rc<RefCell<LlmTally>>;

/// A model that reports every completion to a [`Meter`].
pub struct CountingLlm<L: Llm> {
    inner: L,
    meter: Meter,
}

impl<L: Llm> CountingLlm<L> {
    /// Wraps `inner`, reporting into `meter`.
    pub fn new(inner: L, meter: Meter) -> Self {
        CountingLlm { inner, meter }
    }
}

impl<L: Llm> Llm for CountingLlm<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&mut self, prompt: &str) -> LlmResponse {
        let start = Instant::now();
        let response = self.inner.complete(prompt);
        let nanos = start.elapsed().as_nanos() as u64;
        let cost = price_request(
            &PriceTable::GPT4,
            self.inner.token_window(),
            prompt,
            &response.text,
        );
        let mut tally = self.meter.borrow_mut();
        tally.calls += 1;
        tally.prompt_tokens += cost.prompt_tokens as u64;
        tally.completion_tokens += cost.completion_tokens as u64;
        tally.usd += cost.dollars;
        tally.complete_nanos.push(nanos);
        response
    }

    fn token_window(&self) -> usize {
        self.inner.token_window()
    }

    fn prices(&self) -> PriceTable {
        self.inner.prices()
    }
}
