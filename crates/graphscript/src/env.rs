//! Variable environments: a global scope plus a stack of function-call
//! scopes, with Python-style lookup (locals, then globals).

use crate::error::{Result, ScriptError};
use crate::value::Value;
use std::collections::BTreeMap;

/// The variable environment of a running program.
#[derive(Debug, Default)]
pub struct Env {
    globals: BTreeMap<String, Value>,
    /// One frame per active function call; lookups see only the innermost
    /// frame plus the globals (no lexical closures, like early Python).
    frames: Vec<BTreeMap<String, Value>>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Defines or overwrites a global binding.
    pub fn set_global(&mut self, name: &str, value: Value) {
        self.globals.insert(name.to_string(), value);
    }

    /// Reads a global binding.
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// All global bindings (used by the sandbox to extract results).
    pub fn globals(&self) -> &BTreeMap<String, Value> {
        &self.globals
    }

    /// Pushes a new function-call frame with the given parameter bindings.
    pub fn push_frame(&mut self, bindings: BTreeMap<String, Value>) {
        self.frames.push(bindings);
    }

    /// Pops the innermost function-call frame.
    pub fn pop_frame(&mut self) {
        self.frames.pop();
    }

    /// Assigns a variable: inside a function the innermost frame is used,
    /// otherwise the global scope (Python local-by-default semantics).
    /// Rebinding a bound name allocates nothing.
    pub fn assign(&mut self, name: &str, value: Value) {
        let scope = self.frames.last_mut().unwrap_or(&mut self.globals);
        match scope.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                scope.insert(name.to_string(), value);
            }
        }
    }

    /// Looks a variable up: innermost frame first, then globals.
    pub fn lookup(&self, name: &str) -> Result<Value> {
        if let Some(frame) = self.frames.last() {
            if let Some(v) = frame.get(name) {
                return Ok(v.clone());
            }
        }
        self.globals
            .get(name)
            .cloned()
            .ok_or_else(|| ScriptError::NameError(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_assignment_and_lookup() {
        let mut env = Env::new();
        env.assign("x", Value::Int(1));
        assert!(matches!(env.lookup("x").unwrap(), Value::Int(1)));
        assert!(matches!(env.lookup("y"), Err(ScriptError::NameError(_))));
    }

    #[test]
    fn function_frames_shadow_globals_and_pop() {
        let mut env = Env::new();
        env.assign("x", Value::Int(1));
        let mut bindings = BTreeMap::new();
        bindings.insert("x".to_string(), Value::Int(99));
        env.push_frame(bindings);
        assert!(matches!(env.lookup("x").unwrap(), Value::Int(99)));
        // Assignment inside a function stays local.
        env.assign("y", Value::Int(7));
        env.pop_frame();
        assert!(matches!(env.lookup("x").unwrap(), Value::Int(1)));
        assert!(env.lookup("y").is_err());
    }

    #[test]
    fn globals_visible_inside_functions() {
        let mut env = Env::new();
        env.set_global("G", Value::Int(42));
        env.push_frame(BTreeMap::new());
        assert!(matches!(env.lookup("G").unwrap(), Value::Int(42)));
    }
}
