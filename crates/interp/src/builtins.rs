//! Evaluation of the built-in math functions.

use crate::value::RtVal;

/// A builtin's evaluation: arguments in, result out.
pub type BuiltinFn = fn(&[RtVal]) -> RtVal;

/// The evaluation of builtin `name`, or `None` for unknown names. The
/// machine resolves each call site once, when it decodes the module.
///
/// The returned function panics when argument types do not match the
/// builtin's signature (the frontend inserts coercions, so this indicates
/// a toolchain bug).
#[must_use]
pub fn builtin(name: &str) -> Option<BuiltinFn> {
    let f: BuiltinFn = match name {
        "sqrt" => |a| f1(a, f64::sqrt),
        "log" => |a| f1(a, f64::ln),
        "exp" => |a| f1(a, f64::exp),
        "fabs" => |a| f1(a, f64::abs),
        "sin" => |a| f1(a, f64::sin),
        "cos" => |a| f1(a, f64::cos),
        "floor" => |a| f1(a, f64::floor),
        "ceil" => |a| f1(a, f64::ceil),
        "pow" => |a| f2(a, f64::powf),
        "fmin" => |a| f2(a, f64::min),
        "fmax" => |a| f2(a, f64::max),
        "iabs" => |a| RtVal::I(a[0].as_i().wrapping_abs()),
        "imin" => |a| RtVal::I(a[0].as_i().min(a[1].as_i())),
        "imax" => |a| RtVal::I(a[0].as_i().max(a[1].as_i())),
        _ => return None,
    };
    Some(f)
}

fn f1(args: &[RtVal], f: fn(f64) -> f64) -> RtVal {
    RtVal::F(f(args[0].as_f()))
}

fn f2(args: &[RtVal], f: fn(f64, f64) -> f64) -> RtVal {
    RtVal::F(f(args[0].as_f(), args[1].as_f()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_builtin(name: &str, args: &[RtVal]) -> Option<RtVal> {
        builtin(name).map(|f| f(args))
    }

    #[test]
    fn float_builtins() {
        assert_eq!(eval_builtin("sqrt", &[RtVal::F(9.0)]), Some(RtVal::F(3.0)));
        assert_eq!(eval_builtin("fmax", &[RtVal::F(1.0), RtVal::F(2.0)]), Some(RtVal::F(2.0)));
        assert_eq!(eval_builtin("fabs", &[RtVal::F(-2.5)]), Some(RtVal::F(2.5)));
        assert_eq!(eval_builtin("log", &[RtVal::F(1.0)]), Some(RtVal::F(0.0)));
    }

    #[test]
    fn int_builtins() {
        assert_eq!(eval_builtin("iabs", &[RtVal::I(-7)]), Some(RtVal::I(7)));
        assert_eq!(eval_builtin("imin", &[RtVal::I(3), RtVal::I(-1)]), Some(RtVal::I(-1)));
        assert_eq!(eval_builtin("imax", &[RtVal::I(3), RtVal::I(-1)]), Some(RtVal::I(3)));
    }

    #[test]
    fn unknown_builtin_is_none() {
        assert_eq!(eval_builtin("nope", &[]), None);
    }
}
