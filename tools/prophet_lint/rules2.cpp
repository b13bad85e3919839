// Rule implementations R6–R9: the cross-file families introduced with the
// two-pass analyzer. Like R1–R5 these are token-stream heuristics, not a type
// checker — each pattern is tuned so a hit is either a real violation of the
// threading/lifetime/unit/check disciplines or worth a written justification.
#include <algorithm>
#include <map>

#include "prophet_lint/internal.hpp"

namespace prophet::lint::internal {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::Ident && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::Punct && t.text == text;
}

void diag(std::vector<Diagnostic>& out, const SourceFile& f, int line, const char* rule,
          std::string message) {
  out.push_back(Diagnostic{f.path, line, rule, std::move(message)});
}

// Last component of a member path: "foo.bar_ms" use sites tokenize as
// `foo` `.` `bar_ms`, so rules that key on the identifier already see the
// component; this strips a stray "this->" style prefix in joined names.
bool statement_boundary(const Token& t) {
  return t.kind == TokKind::Punct &&
         (t.text == ";" || t.text == "{" || t.text == "}");
}

// Joins consecutive single-char punct tokens starting at `i` into one
// operator spelling ("==", "+=", "<=", ...) and reports how many tokens it
// consumed. The tokenizer emits single characters (only "::"/"->" fused), so
// operator classification has to re-fuse here.
std::string join_operator(const std::vector<Token>& toks, std::size_t i,
                          std::size_t* consumed) {
  static const std::set<std::string> kOps = {
      "=", "==", "!=", "<", "<=", ">", ">=", "+", "-", "+=", "-=", "*",
      "/",  "*=", "/=", "%", "%=", "&&", "||"};
  std::string best;
  std::string cur;
  std::size_t best_len = 0;
  for (std::size_t k = 0; k < 3 && i + k < toks.size(); ++k) {
    const Token& t = toks[i + k];
    if (t.kind != TokKind::Punct || t.text.size() != 1) break;
    cur += t.text;
    if (kOps.count(cur) != 0) {
      best = cur;
      best_len = k + 1;
    }
  }
  *consumed = best_len;
  return best;
}

}  // namespace

// --- R6 (per-file half): threading primitives outside the executor ----------

void check_threading_primitives(const SourceFile& f, const TokenizedFile& tf,
                                const Config& cfg, std::vector<Diagnostic>& out) {
  if (!path_in_scope(cfg.r6_scope, f.path)) return;
  if (path_sanctioned(cfg.r6_sanctioned, f.path)) return;

  static const std::set<std::string> kHeaders = {
      "thread", "mutex", "shared_mutex", "atomic", "condition_variable",
      "future", "stop_token", "semaphore", "latch", "barrier"};
  for (const IncludeDirective& inc : tf.includes) {
    if (inc.angled && kHeaders.count(inc.target) != 0) {
      diag(out, f, inc.line, "R6",
           "threading header <" + inc.target +
               "> included outside the sanctioned executor files; all parallelism "
               "routes through src/exec (see [r6-sanctioned])");
    }
  }

  static const std::set<std::string> kPrimitives = {
      "thread",        "jthread",       "mutex",          "timed_mutex",
      "recursive_mutex", "shared_mutex", "atomic",        "atomic_flag",
      "condition_variable", "condition_variable_any", "future", "shared_future",
      "promise",       "async",         "lock_guard",    "unique_lock",
      "scoped_lock",   "shared_lock",   "call_once",     "once_flag",
      "counting_semaphore", "binary_semaphore", "latch", "barrier"};
  const auto& toks = tf.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Ident) continue;
    if (t.text == "thread_local") {
      diag(out, f, t.line, "R6",
           "thread_local storage outside the sanctioned executor files; sweep "
           "cells must carry their state explicitly so results replay identically "
           "on any thread assignment");
      continue;
    }
    const bool std_qualified =
        i >= 2 && is_punct(toks[i - 1], "::") && is_ident(toks[i - 2], "std");
    if (std_qualified && kPrimitives.count(t.text) != 0) {
      diag(out, f, t.line, "R6",
           "threading primitive std::" + t.text +
               " outside the sanctioned executor files; the exec/ sweep executor "
               "is the only sanctioned parallelism in this tree");
    }
  }
}

// --- R6 (cross-file half): mutable globals reachable from sweep cells -------

void check_sweep_shared_state(const std::vector<SourceFile>& files, const Config& cfg,
                              const ProjectIndex& index,
                              std::vector<Diagnostic>& out) {
  for (std::size_t caller = 0; caller < files.size(); ++caller) {
    if (!index.calls_sweep[caller]) continue;
    for (const std::size_t j : forward_include_closure(index, caller)) {
      const SourceFile& f = files[j];
      if (!path_in_scope(cfg.r6_scope, f.path)) continue;
      if (path_sanctioned(cfg.r6_sanctioned, f.path)) continue;
      for (const GlobalVar& g : index.globals[j]) {
        // The driver dedupes by (file, line, rule), so a global seen through
        // several sweep callers or include paths is reported exactly once.
        diag(out, f, g.line, "R6",
             "mutable namespace-scope state '" + g.name +
                 "' is reachable from a parallel sweep (this file is in the "
                 "include closure of a run_sweep/parallel_map caller); cells run "
                 "concurrently and must not share mutable globals");
      }
    }
  }
}

// --- R7: slab {slot, generation} handle lifetime -----------------------------

void check_handle_lifetime(const SourceFile& f, const TokenizedFile& tf,
                           const Config& cfg, const ProjectIndex& index,
                           std::vector<Diagnostic>& out) {
  if (!path_in_scope(cfg.r7_scope, f.path)) return;
  if (path_sanctioned(cfg.r7_sanctioned, f.path)) return;
  const auto& toks = tf.tokens;
  // Handle-typed names declared in THIS file; an `id` declared as FlowId in
  // some other translation unit must not taint this one.
  static const std::set<std::string> kNoHandles;
  const auto self = index.by_path.find(f.path);
  const std::set<std::string>& handles =
      self != index.by_path.end() ? index.handle_names[self->second] : kNoHandles;

  static const std::set<std::string> kNarrowTypes = {
      "uint32_t", "int32_t", "uint16_t", "int16_t", "int", "unsigned", "short"};
  static const std::set<std::string> kPoolFactories = {"start_flow"};

  // name -> pool object it was produced from ("" unknown): `x = net.start_flow(`.
  std::map<std::string, std::string> provenance;
  // name -> brace depth at which it was cancelled (for use-after-cancel).
  struct Cancelled {
    int depth;
    int line;
  };
  std::map<std::string, Cancelled> cancelled;
  int depth = 0;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::Punct) {
      if (t.text == "{") {
        ++depth;
      } else if (t.text == "}") {
        --depth;
        for (auto it = cancelled.begin(); it != cancelled.end();) {
          it = it->second.depth > depth ? cancelled.erase(it) : std::next(it);
        }
      }
      continue;
    }
    if (t.kind != TokKind::Ident) continue;

    // (a) Narrowing a handle discards the generation tag.
    if (t.text == "static_cast" && i + 1 < toks.size() && is_punct(toks[i + 1], "<")) {
      // Collect the target-type idents up to '>' and the cast operand up to
      // the matching ')'.
      std::size_t j = i + 2;
      bool narrow = false;
      while (j < toks.size() && !is_punct(toks[j], ">")) {
        if (toks[j].kind == TokKind::Ident && kNarrowTypes.count(toks[j].text) != 0) {
          narrow = true;
        }
        ++j;
      }
      if (narrow && j + 1 < toks.size() && is_punct(toks[j + 1], "(")) {
        int pd = 0;
        for (std::size_t k = j + 1; k < toks.size(); ++k) {
          if (is_punct(toks[k], "(")) ++pd;
          if (is_punct(toks[k], ")") && --pd == 0) break;
          if (toks[k].kind == TokKind::Ident &&
              handles.count(toks[k].text) != 0) {
            diag(out, f, t.line, "R7",
                 "narrowing the {slot, generation} handle '" + toks[k].text +
                     "' to a raw slot discards the generation tag and resurrects "
                     "recycled slots (ABA); store and pass the full handle");
            break;
          }
        }
      }
      continue;
    }

    // Provenance: `x = obj.start_flow(` or `FlowId x = obj.start_flow(`.
    if (i + 5 < toks.size() && is_punct(toks[i + 1], "=") &&
        toks[i + 2].kind == TokKind::Ident &&
        (is_punct(toks[i + 3], ".") || is_punct(toks[i + 3], "->")) &&
        toks[i + 4].kind == TokKind::Ident &&
        kPoolFactories.count(toks[i + 4].text) != 0 && is_punct(toks[i + 5], "(")) {
      provenance[t.text] = toks[i + 2].text;
      cancelled.erase(t.text);
      continue;
    }

    // (b) Comparing handles from different pools: slot/generation values are
    // only meaningful within the pool that issued them.
    if (provenance.count(t.text) != 0 && i + 2 < toks.size()) {
      std::size_t consumed = 0;
      const std::string op = join_operator(toks, i + 1, &consumed);
      if ((op == "==" || op == "!=") && i + 1 + consumed < toks.size()) {
        const Token& rhs = toks[i + 1 + consumed];
        if (rhs.kind == TokKind::Ident && provenance.count(rhs.text) != 0 &&
            provenance[t.text] != provenance[rhs.text]) {
          diag(out, f, t.line, "R7",
               "comparing handles '" + t.text + "' (from " + provenance[t.text] +
                   ") and '" + rhs.text + "' (from " + provenance[rhs.text] +
                   "): handles from different pools are never comparable");
          continue;
        }
      }
    }

    // (c) Use after cancel, same scope. Track `h.cancel()` at statement start
    // and `cancel_flow(h)`; any later use of the name before reassignment or
    // scope exit is a stale-handle access.
    const bool stmt_start = i == 0 || statement_boundary(toks[i - 1]);
    if (stmt_start && i + 3 < toks.size() &&
        (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
        is_ident(toks[i + 2], "cancel") && is_punct(toks[i + 3], "(")) {
      cancelled[t.text] = Cancelled{depth, t.line};
      i += 3;
      continue;
    }
    if (t.text == "cancel_flow" && i + 2 < toks.size() && is_punct(toks[i + 1], "(") &&
        toks[i + 2].kind == TokKind::Ident && i + 3 < toks.size() &&
        is_punct(toks[i + 3], ")")) {
      cancelled[toks[i + 2].text] = Cancelled{depth, toks[i + 2].line};
      i += 3;
      continue;
    }
    const auto dead = cancelled.find(t.text);
    if (dead != cancelled.end()) {
      if (i + 1 < toks.size() && is_punct(toks[i + 1], "=") &&
          !(i + 2 < toks.size() && is_punct(toks[i + 2], "="))) {
        cancelled.erase(dead);  // reassigned: the handle is live again
      } else {
        diag(out, f, t.line, "R7",
             "'" + t.text + "' is used after cancel (cancelled at line " +
                 std::to_string(dead->second.line) +
                 " in the same scope); the slot may already be recycled — "
                 "re-acquire the handle or hoist the use above the cancel");
        cancelled.erase(dead);  // one report per kill site, not a cascade
      }
    }
  }
}

// --- R8: unit safety ---------------------------------------------------------

void check_unit_safety(const SourceFile& f, const TokenizedFile& tf, const Config& cfg,
                       const ProjectIndex& index, std::vector<Diagnostic>& out) {
  if (!path_in_scope(cfg.r8_scope, f.path)) return;
  if (path_sanctioned(cfg.r8_sanctioned, f.path)) return;
  const auto& toks = tf.tokens;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Ident) continue;
    const std::string lhs_unit = unit_of(t.text);

    // Cross-unit binary op / assignment between two tagged identifiers.
    // '*' and '/' are deliberately exempt: dividing bytes by seconds IS how
    // rates are formed; it is +, -, comparison and assignment that silently
    // mix magnitudes.
    if (!lhs_unit.empty() && i + 2 < toks.size()) {
      std::size_t consumed = 0;
      const std::string op = join_operator(toks, i + 1, &consumed);
      static const std::set<std::string> kMixOps = {"+",  "-",  "+=", "-=", "=",
                                                    "==", "!=", "<",  "<=", ">",
                                                    ">="};
      if (consumed != 0 && kMixOps.count(op) != 0 && i + 1 + consumed < toks.size()) {
        const Token& rhs = toks[i + 1 + consumed];
        if (rhs.kind == TokKind::Ident) {
          const std::string rhs_unit = unit_of(rhs.text);
          if (!rhs_unit.empty() && rhs_unit != lhs_unit) {
            diag(out, f, t.line, "R8",
                 "unit mismatch: '" + t.text + "' (" + lhs_unit + ") " + op + " '" +
                     rhs.text + "' (" + rhs_unit +
                     "); convert explicitly through the common/time.hpp helpers "
                     "instead of mixing magnitudes");
            i += consumed;  // don't re-report the same operator from the rhs
            continue;
          }
        }
      }
    }

    // Call-site check against the cross-file signature index: a bare tagged
    // identifier passed where the declared parameter carries a different tag.
    const auto sig = index.functions.find(t.text);
    if (sig != index.functions.end() && !sig->second.ambiguous &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        !(sig->second.file == f.path && sig->second.line == t.line)) {
      int depth = 0;
      std::size_t arg = 0;
      std::size_t arg_first = 0;  // token index of the arg's only ident so far
      std::size_t arg_tokens = 0;
      const auto flush_arg = [&](int line) {
        if (arg_tokens == 1 && arg < sig->second.params.size()) {
          const std::string& param = sig->second.params[arg];
          const std::string want = unit_of(param);
          const std::string got = unit_of(toks[arg_first].text);
          if (!want.empty() && !got.empty() && want != got) {
            diag(out, f, line, "R8",
                 "argument '" + toks[arg_first].text + "' (" + got +
                     ") passed to parameter '" + param + "' (" + want + ") of " +
                     t.text + "() declared at " + sig->second.file + ":" +
                     std::to_string(sig->second.line) +
                     "; convert to the declared unit first");
          }
        }
      };
      for (std::size_t k = i + 1; k < toks.size(); ++k) {
        const Token& a = toks[k];
        if (a.kind == TokKind::Punct && a.text == "(") {
          if (++depth == 1) {
            arg = 0;
            arg_tokens = 0;
          }
          continue;
        }
        if (a.kind == TokKind::Punct && a.text == ")") {
          if (--depth == 0) {
            flush_arg(a.line);
            break;
          }
          continue;
        }
        if (depth == 1 && a.kind == TokKind::Punct && a.text == ",") {
          flush_arg(a.line);
          ++arg;
          arg_tokens = 0;
          continue;
        }
        if (depth >= 1) {
          if (depth == 1 && a.kind == TokKind::Ident) arg_first = k;
          ++arg_tokens;
        }
      }
    }
  }
}

// --- R9: check discipline ----------------------------------------------------

void check_check_discipline(const SourceFile& f, const TokenizedFile& tf,
                            const Config& cfg, std::vector<Diagnostic>& out) {
  if (!path_in_scope(cfg.r9_scope, f.path)) return;
  if (path_sanctioned(cfg.r9_sanctioned, f.path)) return;
  const auto& toks = tf.tokens;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Ident) continue;

    // Side effects inside PROPHET_CHECK: the checks stay enabled in release
    // builds, so a mutation in the condition runs in production and differs
    // from what a reader skipping "assertions" expects.
    if ((t.text == "PROPHET_CHECK" || t.text == "PROPHET_CHECK_MSG") &&
        is_punct(toks[i + 1], "(")) {
      int depth = 0;
      for (std::size_t k = i + 1; k < toks.size(); ++k) {
        const Token& a = toks[k];
        if (a.kind != TokKind::Punct) continue;
        if (a.text == "(") ++depth;
        if (a.text == ")" && --depth == 0) break;
        bool effect = false;
        if ((a.text == "+" || a.text == "-") && k + 1 < toks.size() &&
            toks[k + 1].kind == TokKind::Punct && toks[k + 1].text == a.text) {
          effect = true;  // ++ / --
        } else if (a.text == "=") {
          const Token* prev = k > 0 ? &toks[k - 1] : nullptr;
          const Token* next = k + 1 < toks.size() ? &toks[k + 1] : nullptr;
          const auto is_cmp_part = [](const Token* p) {
            return p != nullptr && p->kind == TokKind::Punct &&
                   (p->text == "=" || p->text == "!" || p->text == "<" ||
                    p->text == ">");
          };
          const bool compound =
              prev != nullptr && prev->kind == TokKind::Punct &&
              (prev->text == "+" || prev->text == "-" || prev->text == "*" ||
               prev->text == "/" || prev->text == "%" || prev->text == "&" ||
               prev->text == "|" || prev->text == "^");
          const bool lambda_capture =
              prev != nullptr && prev->kind == TokKind::Punct && prev->text == "[";
          if (compound || (!is_cmp_part(prev) && !is_cmp_part(next) && !lambda_capture)) {
            effect = true;  // plain or compound assignment
          }
        }
        if (effect) {
          diag(out, f, t.line, "R9",
               "side-effecting expression inside " + t.text +
                   "(...); checks must be pure — they run in release builds and "
                   "the mutation hides from readers who skim past assertions");
          // One report per macro invocation.
          while (k < toks.size() && !(is_punct(toks[k], ")") && depth == 1)) ++k;
          break;
        }
      }
      continue;
    }

    // Discarded must-use return: the whole statement is `chain.f(...);` for a
    // status/optional-returning API in [r9-must-use].
    if (cfg.r9_must_use.count(t.text) != 0 && is_punct(toks[i + 1], "(")) {
      // Walk back over a member/qualifier chain to the statement head.
      std::size_t head = i;
      while (head >= 2 && toks[head - 1].kind == TokKind::Punct &&
             (toks[head - 1].text == "." || toks[head - 1].text == "->" ||
              toks[head - 1].text == "::") &&
             toks[head - 2].kind == TokKind::Ident) {
        head -= 2;
      }
      const bool at_stmt_start = head == 0 || statement_boundary(toks[head - 1]);
      if (!at_stmt_start) continue;
      int depth = 0;
      std::size_t close = 0;
      for (std::size_t k = i + 1; k < toks.size(); ++k) {
        if (is_punct(toks[k], "(")) ++depth;
        if (is_punct(toks[k], ")") && --depth == 0) {
          close = k;
          break;
        }
      }
      if (close != 0 && close + 1 < toks.size() && is_punct(toks[close + 1], ";")) {
        diag(out, f, t.line, "R9",
             "discarded result of " + t.text +
                 "() — it reports failure through its return value; check it, or "
                 "cast to void with a comment if failure is truly irrelevant");
      }
    }
  }
}

}  // namespace prophet::lint::internal
