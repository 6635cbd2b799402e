//! Methods on lists, dictionaries and strings.

use crate::bindings::expect_arity;
use crate::dict::{self, Dict};
use crate::error::{Result, ScriptError};
use crate::value::Value;
use std::cell::RefCell;
use std::rc::Rc;

/// Dispatches a method call on a list.
pub fn call_list(items: &Rc<RefCell<Vec<Value>>>, method: &str, args: &[Value]) -> Result<Value> {
    match method {
        "append" => {
            expect_arity("append", args, &[1])?;
            items.borrow_mut().push(args[0].clone());
            Ok(Value::Null)
        }
        "extend" => {
            expect_arity("extend", args, &[1])?;
            match &args[0] {
                Value::List(other) => {
                    let extra = other.borrow().clone();
                    items.borrow_mut().extend(extra);
                    Ok(Value::Null)
                }
                other => Err(ScriptError::TypeError(format!(
                    "extend() expects a list, got {}",
                    other.type_name()
                ))),
            }
        }
        "pop" => {
            expect_arity("pop", args, &[0])?;
            items
                .borrow_mut()
                .pop()
                .ok_or_else(|| ScriptError::Runtime("pop from an empty list".to_string()))
        }
        "insert" => {
            expect_arity("insert", args, &[2])?;
            let idx = args[0].expect_i64("insert")?.max(0) as usize;
            let mut borrowed = items.borrow_mut();
            let idx = idx.min(borrowed.len());
            borrowed.insert(idx, args[1].clone());
            Ok(Value::Null)
        }
        "remove" => {
            expect_arity("remove", args, &[1])?;
            let mut borrowed = items.borrow_mut();
            match borrowed.iter().position(|v| v.approx_eq(&args[0])) {
                Some(pos) => {
                    borrowed.remove(pos);
                    Ok(Value::Null)
                }
                None => Err(ScriptError::Runtime(format!(
                    "list.remove(): value {} not found",
                    args[0]
                ))),
            }
        }
        "sort" => {
            expect_arity("sort", args, &[0, 1])?;
            let descending = args.first().map(|v| v.is_truthy()).unwrap_or(false);
            let mut borrowed = items.borrow_mut();
            borrowed.sort_by(|a, b| a.partial_cmp_value(b).unwrap_or(std::cmp::Ordering::Equal));
            if descending {
                borrowed.reverse();
            }
            Ok(Value::Null)
        }
        "reverse" => {
            expect_arity("reverse", args, &[0])?;
            items.borrow_mut().reverse();
            Ok(Value::Null)
        }
        "contains" => {
            expect_arity("contains", args, &[1])?;
            Ok(Value::Bool(
                items.borrow().iter().any(|v| v.approx_eq(&args[0])),
            ))
        }
        "index" => {
            expect_arity("index", args, &[1])?;
            items
                .borrow()
                .iter()
                .position(|v| v.approx_eq(&args[0]))
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| {
                    ScriptError::Runtime(format!("list.index(): value {} not found", args[0]))
                })
        }
        "count" => {
            expect_arity("count", args, &[1])?;
            Ok(Value::Int(
                items
                    .borrow()
                    .iter()
                    .filter(|v| v.approx_eq(&args[0]))
                    .count() as i64,
            ))
        }
        other => Err(ScriptError::AttributeError {
            type_name: "list".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// Dispatches a method call on a dictionary.
pub fn call_dict(map: &Rc<RefCell<Dict>>, method: &str, args: &[Value]) -> Result<Value> {
    match method {
        "get" => {
            expect_arity("get", args, &[1, 2])?;
            let key = args[0].as_key()?;
            Ok(
                dict::read(map, &key)
                    .unwrap_or_else(|| args.get(1).cloned().unwrap_or(Value::Null)),
            )
        }
        "set" => {
            expect_arity("set", args, &[2])?;
            let key = args[0].as_key()?;
            map.borrow_mut().map_mut().insert(key, args[1].clone());
            Ok(Value::Null)
        }
        "keys" => {
            expect_arity("keys", args, &[0])?;
            Ok(keys(map))
        }
        "values" => {
            expect_arity("values", args, &[0])?;
            Ok(values(map))
        }
        "items" => {
            expect_arity("items", args, &[0])?;
            Ok(items(map))
        }
        "contains" | "has_key" => {
            expect_arity(method, args, &[1])?;
            let key = args[0].as_key()?;
            Ok(Value::Bool(map.borrow().contains_key(&key)))
        }
        "remove" | "delete" => {
            expect_arity(method, args, &[1])?;
            let key = args[0].as_key()?;
            map.borrow_mut()
                .map_mut()
                .remove(&key)
                .ok_or_else(|| ScriptError::MissingAttribute {
                    owner: "dict".to_string(),
                    key: key.to_string(),
                })
        }
        "update" => {
            expect_arity("update", args, &[1])?;
            match &args[0] {
                Value::Dict(other) => {
                    let extra = dict::read_entries(other);
                    map.borrow_mut().map_mut().extend(extra);
                    Ok(Value::Null)
                }
                other => Err(ScriptError::TypeError(format!(
                    "update() expects a dict, got {}",
                    other.type_name()
                ))),
            }
        }
        other => Err(ScriptError::AttributeError {
            type_name: "dict".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// The keys of a dict as a list of strings, in sorted order.
pub(crate) fn keys(map: &RefCell<Dict>) -> Value {
    let entries = map.borrow().entries();
    Value::list(entries.into_iter().map(|(k, _)| Value::Str(k)).collect())
}

/// The values of a dict, in key order.
pub(crate) fn values(map: &RefCell<Dict>) -> Value {
    Value::list(
        dict::read_entries(map)
            .into_iter()
            .map(|(_, v)| v)
            .collect(),
    )
}

/// The `[key, value]` pairs of a dict, in key order.
pub(crate) fn items(map: &RefCell<Dict>) -> Value {
    Value::list(
        dict::read_entries(map)
            .into_iter()
            .map(|(k, v)| Value::list(vec![Value::Str(k), v]))
            .collect(),
    )
}

/// Dispatches a method call on a string.
pub fn call_str(s: &str, method: &str, args: &[Value]) -> Result<Value> {
    match method {
        "split" => {
            expect_arity("split", args, &[0, 1])?;
            let parts: Vec<Value> = match args.first() {
                Some(sep) => s
                    .split(sep.expect_str("split")?)
                    .map(|p| Value::Str(p.into()))
                    .collect(),
                None => s.split_whitespace().map(|p| Value::Str(p.into())).collect(),
            };
            Ok(Value::list(parts))
        }
        "startswith" | "starts_with" => {
            expect_arity(method, args, &[1])?;
            Ok(Value::Bool(s.starts_with(args[0].expect_str(method)?)))
        }
        "endswith" | "ends_with" => {
            expect_arity(method, args, &[1])?;
            Ok(Value::Bool(s.ends_with(args[0].expect_str(method)?)))
        }
        "contains" => {
            expect_arity("contains", args, &[1])?;
            Ok(Value::Bool(s.contains(args[0].expect_str("contains")?)))
        }
        "upper" => {
            expect_arity("upper", args, &[0])?;
            Ok(Value::Str(s.to_uppercase().into()))
        }
        "lower" => {
            expect_arity("lower", args, &[0])?;
            Ok(Value::Str(s.to_lowercase().into()))
        }
        "strip" => {
            expect_arity("strip", args, &[0])?;
            Ok(Value::Str(s.trim().into()))
        }
        "replace" => {
            expect_arity("replace", args, &[2])?;
            let from = args[0].expect_str("replace")?;
            let to = args[1].expect_str("replace")?;
            Ok(Value::Str(s.replace(from, to).into()))
        }
        "join" => {
            expect_arity("join", args, &[1])?;
            match &args[0] {
                Value::List(items) => Ok(Value::Str(
                    items
                        .borrow()
                        .iter()
                        .map(Value::to_string)
                        .collect::<Vec<_>>()
                        .join(s)
                        .into(),
                )),
                other => Err(ScriptError::TypeError(format!(
                    "join() expects a list, got {}",
                    other.type_name()
                ))),
            }
        }
        other => Err(ScriptError::AttributeError {
            type_name: "str".to_string(),
            attr: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::call_method;

    #[test]
    fn list_mutation_methods() {
        let list = Value::list(vec![Value::Int(2), Value::Int(1)]);
        call_method(&list, "append", &[Value::Int(3)]).unwrap();
        call_method(&list, "sort", &[]).unwrap();
        assert_eq!(list.to_string(), "[1, 2, 3]");
        call_method(&list, "reverse", &[]).unwrap();
        assert_eq!(list.to_string(), "[3, 2, 1]");
        assert_eq!(
            call_method(&list, "contains", &[Value::Int(2)])
                .unwrap()
                .to_string(),
            "true"
        );
        assert_eq!(
            call_method(&list, "index", &[Value::Int(2)])
                .unwrap()
                .to_string(),
            "1"
        );
        let popped = call_method(&list, "pop", &[]).unwrap();
        assert_eq!(popped.to_string(), "1");
        call_method(&list, "remove", &[Value::Int(3)]).unwrap();
        assert_eq!(list.to_string(), "[2]");
        assert!(call_method(&list, "remove", &[Value::Int(99)]).is_err());
    }

    #[test]
    fn dict_methods() {
        let d = Value::dict(Vec::<(&str, Value)>::new());
        call_method(&d, "set", &[Value::Str("a".into()), Value::Int(1)]).unwrap();
        assert_eq!(
            call_method(&d, "get", &[Value::Str("a".into())])
                .unwrap()
                .to_string(),
            "1"
        );
        assert_eq!(
            call_method(&d, "get", &[Value::Str("zz".into()), Value::Int(0)])
                .unwrap()
                .to_string(),
            "0"
        );
        assert_eq!(
            call_method(&d, "contains", &[Value::Str("a".into())])
                .unwrap()
                .to_string(),
            "true"
        );
        assert_eq!(call_method(&d, "keys", &[]).unwrap().to_string(), "[a]");
        let err = call_method(&d, "remove", &[Value::Str("nope".into())]).unwrap_err();
        assert!(err.is_missing_attribute());
    }

    #[test]
    fn string_methods() {
        let s = Value::Str("10.76.3.9".into());
        assert_eq!(
            call_method(&s, "split", &[Value::Str(".".into())])
                .unwrap()
                .to_string(),
            "[10, 76, 3, 9]"
        );
        assert_eq!(
            call_method(&s, "startswith", &[Value::Str("10.76".into())])
                .unwrap()
                .to_string(),
            "true"
        );
        assert_eq!(
            call_method(
                &Value::Str("a-b".into()),
                "replace",
                &[Value::Str("-".into()), Value::Str(":".into())]
            )
            .unwrap()
            .to_string(),
            "a:b"
        );
        let sep = Value::Str(".".into());
        let list = Value::list(vec![Value::Str("10".into()), Value::Str("76".into())]);
        assert_eq!(
            call_method(&sep, "join", &[list]).unwrap().to_string(),
            "10.76"
        );
    }

    #[test]
    fn unknown_methods_are_attribute_errors() {
        let list = Value::list(vec![]);
        assert!(matches!(
            call_method(&list, "shuffle", &[]),
            Err(ScriptError::AttributeError { .. })
        ));
        assert!(matches!(
            call_method(&Value::Str("x".into()), "explode", &[]),
            Err(ScriptError::AttributeError { .. })
        ));
    }

    #[test]
    fn wrong_arity_is_argument_error() {
        let list = Value::list(vec![]);
        assert!(call_method(&list, "append", &[])
            .unwrap_err()
            .is_argument_error());
        let d = Value::dict(Vec::<(&str, Value)>::new());
        assert!(call_method(&d, "set", &[Value::Int(1)])
            .unwrap_err()
            .is_argument_error());
    }
}
