//! Method dispatch for the built-in object types.
//!
//! A GraphScript method call `receiver.name(args)` is routed here based on
//! the receiver's type. Unknown method names raise
//! [`ScriptError::AttributeError`], which is exactly the "imaginary
//! function" failure the paper's Table 5 catalogues (an LLM inventing a
//! NetworkX/pandas API that does not exist).

mod collections;
mod frame;
mod graph;

pub(crate) use collections::{items, keys, values};

use crate::error::{Result, ScriptError};
use crate::value::Value;

/// Calls `receiver.method(args)`.
pub fn call_method(receiver: &Value, method: &str, args: &[Value]) -> Result<Value> {
    match receiver {
        Value::Graph(g) => graph::call(g, method, args),
        Value::Frame(df) => frame::call(df, method, args),
        Value::List(items) => collections::call_list(items, method, args),
        Value::Dict(map) => collections::call_dict(map, method, args),
        Value::Str(s) => collections::call_str(s, method, args),
        other => Err(ScriptError::AttributeError {
            type_name: other.type_name().to_string(),
            attr: method.to_string(),
        }),
    }
}

/// Checks an exact argument count, producing the argument-error category the
/// error classifier recognizes.
pub(crate) fn expect_arity(method: &str, args: &[Value], valid: &[usize]) -> Result<()> {
    if valid.contains(&args.len()) {
        Ok(())
    } else {
        let expected = valid
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" or ");
        Err(ScriptError::ArgumentError {
            function: method.to_string(),
            message: format!("expected {expected} argument(s), got {}", args.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_on_unsupported_receiver_is_attribute_error() {
        let err = call_method(&Value::Int(5), "split", &[]).unwrap_err();
        assert!(matches!(err, ScriptError::AttributeError { .. }));
    }

    #[test]
    fn arity_helper() {
        assert!(expect_arity("m", &[Value::Null], &[1]).is_ok());
        let err = expect_arity("m", &[], &[1, 2]).unwrap_err();
        assert!(err.is_argument_error());
        assert!(err.to_string().contains("1 or 2"));
    }
}
