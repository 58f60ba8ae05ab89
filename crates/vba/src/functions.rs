//! VBA built-in function category tables (MS-VBAL standard library).
//!
//! These drive features V8–V12 of the paper (§IV.C.3): the proportion of
//! text, arithmetic, type-conversion, financial and "rich functionality"
//! function calls is discriminative for encoding obfuscation (O3).

/// The paper's five function categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionCategory {
    /// V8: text/string manipulation (`Asc`, `Chr`, `Mid`, `Replace`, …).
    Text,
    /// V9: arithmetic (`Abs`, `Cos`, `Exp`, `Sqr`, …).
    Arithmetic,
    /// V10: type conversion (`CBool`, `CStr`, `Hex`, `Val`, …).
    TypeConversion,
    /// V11: financial (`DDB`, `FV`, `Pmt`, `Rate`, …).
    Financial,
    /// V12: rich functionality able to write, download or execute
    /// (`Shell`, `CreateObject`, `CallByName`, …).
    Rich,
}

/// V8 — text functions (lowercase).
pub const TEXT_FUNCTIONS: &[&str] = &[
    "asc",
    "ascb",
    "ascw",
    "chr",
    "chrb",
    "chrw",
    "filter",
    "format",
    "instr",
    "instrb",
    "instrrev",
    "join",
    "lcase",
    "left",
    "leftb",
    "len",
    "lenb",
    "ltrim",
    "mid",
    "midb",
    "monthname",
    "replace",
    "right",
    "rightb",
    "rtrim",
    "space",
    "split",
    "strcomp",
    "strconv",
    "strreverse",
    "trim",
    "ucase",
    "weekdayname",
];

/// V9 — arithmetic functions (lowercase). `Randomize` is lexed as a keyword
/// in strict VBA grammars but commonly appears as a call; both count.
pub const ARITHMETIC_FUNCTIONS: &[&str] = &[
    "abs",
    "atn",
    "cos",
    "exp",
    "fix",
    "int",
    "log",
    "randomize",
    "rnd",
    "round",
    "sgn",
    "sin",
    "sqr",
    "tan",
];

/// V10 — type conversion functions (lowercase).
pub const CONVERSION_FUNCTIONS: &[&str] = &[
    "cbool", "cbyte", "ccur", "cdate", "cdbl", "cdec", "cint", "clng", "clnglng", "clngptr",
    "csng", "cstr", "cvar", "cvdate", "cverr", "hex", "oct", "str", "val",
];

/// V11 — financial functions (lowercase).
pub const FINANCIAL_FUNCTIONS: &[&str] = &[
    "ddb", "fv", "ipmt", "irr", "mirr", "nper", "npv", "pmt", "ppmt", "pv", "rate", "sln", "syd",
];

/// V12 — functions with rich functionality: able to run programs, touch the
/// filesystem, instantiate COM objects or evaluate code. The list merges the
/// paper's examples with the Win32 imports ubiquitous in macro droppers.
pub const RICH_FUNCTIONS: &[&str] = &[
    "callbyname",
    "chdir",
    "chdrive",
    "createobject",
    "createprocess",
    "createprocessa",
    "createthread",
    "dir",
    "environ",
    "eval",
    "exec",
    "executeexcel4macro",
    "filecopy",
    "getobject",
    "kill",
    "mkdir",
    "rmdir",
    "run",
    "savetofile",
    "sendkeys",
    "setattr",
    "shell",
    "shellexecute",
    "shellexecutea",
    "urldownloadtofile",
    "urldownloadtofilea",
    "winexec",
];

/// Looks up the category of a (case-insensitive) function name.
///
/// ```
/// use vbadet_vba::{functions, FunctionCategory};
/// assert_eq!(functions::categorize("Chr"), Some(FunctionCategory::Text));
/// assert_eq!(functions::categorize("SHELL"), Some(FunctionCategory::Rich));
/// assert_eq!(functions::categorize("MyHelper"), None);
/// ```
pub fn categorize(name: &str) -> Option<FunctionCategory> {
    crate::words::classify(name).category()
}

/// Whether `name` is any known built-in (used by call-site detection for
/// paren-less statement calls like `Shell prog, 1`).
pub fn is_builtin(name: &str) -> bool {
    crate::words::classify(name).is_builtin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_disjoint() {
        use std::collections::HashSet;
        let mut seen: HashSet<&str> = HashSet::new();
        for table in [
            TEXT_FUNCTIONS,
            ARITHMETIC_FUNCTIONS,
            CONVERSION_FUNCTIONS,
            FINANCIAL_FUNCTIONS,
            RICH_FUNCTIONS,
        ] {
            for name in table {
                assert!(seen.insert(name), "{name} appears in two categories");
            }
        }
    }

    #[test]
    fn paper_examples_are_categorized() {
        // §IV.C.3 lists representative members of each category.
        for f in [
            "Asc", "Chr", "Mid", "Join", "InStr", "Replace", "Right", "StrConv",
        ] {
            assert_eq!(categorize(f), Some(FunctionCategory::Text), "{f}");
        }
        for f in [
            "Abs",
            "Atn",
            "Cos",
            "Exp",
            "Log",
            "Randomize",
            "Round",
            "Tan",
            "Sqr",
        ] {
            assert_eq!(categorize(f), Some(FunctionCategory::Arithmetic), "{f}");
        }
        for f in ["CBool", "CByte", "CStr", "CDec"] {
            assert_eq!(categorize(f), Some(FunctionCategory::TypeConversion), "{f}");
        }
        for f in ["DDB", "FV", "IPmt", "PV", "Pmt", "Rate", "SLN", "SYD"] {
            assert_eq!(categorize(f), Some(FunctionCategory::Financial), "{f}");
        }
        for f in ["Shell", "CallByName", "CreateObject", "URLDownloadToFile"] {
            assert_eq!(categorize(f), Some(FunctionCategory::Rich), "{f}");
        }
    }

    #[test]
    fn type_suffix_is_ignored() {
        assert_eq!(categorize("Chr$"), Some(FunctionCategory::Text));
        assert_eq!(categorize("Hex$"), Some(FunctionCategory::TypeConversion));
    }

    #[test]
    fn unknown_names() {
        assert_eq!(categorize("FooBar"), None);
        assert!(!is_builtin("decodeBase64"));
        assert!(is_builtin("shell"));
    }
}
