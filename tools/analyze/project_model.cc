#include "analyze/project_model.hh"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>

namespace lva::audit {
namespace {

// ---------------------------------------------------------------------
// Small lexical helpers over the stripped text.
// ---------------------------------------------------------------------

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/**
 * Starting at the '(' at @p open, return the offset one past the
 * matching ')' and fill @p firstArg with the text of the first
 * argument (up to the first comma at nesting depth 1).  Returns
 * std::string::npos when the parenthesis never closes.
 */
std::size_t
matchCall(const std::string &text, std::size_t open,
          std::string *firstArg)
{
    int depth = 0;
    std::size_t argEnd = std::string::npos;
    for (std::size_t i = open; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '(') {
            ++depth;
        } else if (c == ')') {
            if (--depth == 0) {
                if (firstArg) {
                    const std::size_t end =
                        argEnd == std::string::npos ? i : argEnd;
                    *firstArg = text.substr(open + 1, end - open - 1);
                }
                return i + 1;
            }
        } else if (c == ',' && depth == 1 &&
                   argEnd == std::string::npos) {
            argEnd = i;
        }
    }
    return std::string::npos;
}

/** All double-quoted literals inside @p s (stripped of quotes). */
std::vector<std::string>
literalsIn(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while ((pos = s.find('"', pos)) != std::string::npos) {
        const std::size_t end = s.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        out.push_back(s.substr(pos + 1, end - pos - 1));
        pos = end + 1;
    }
    return out;
}

int
lineAt(const std::vector<int> &lineOf, std::size_t offset)
{
    return lineOf[std::min(offset, lineOf.size() - 1)];
}

// ---------------------------------------------------------------------
// Includes.
// ---------------------------------------------------------------------

void
extractIncludes(const std::string &kept,
                const std::vector<int> &lineOf, SourceFile &out)
{
    // Quoted includes only: system headers carry no layering signal.
    // The keepStrings text blanks comments, so commented-out includes
    // do not register.
    static const std::regex re(
        R"re(^[ \t]*#[ \t]*include[ \t]*"([^"]+)")re");
    // std::regex has no multiline anchor pre-C++23; walk lines.
    std::size_t pos = 0;
    int line = 1;
    while (pos <= kept.size()) {
        std::size_t eol = kept.find('\n', pos);
        if (eol == std::string::npos)
            eol = kept.size();
        const std::string text = kept.substr(pos, eol - pos);
        std::smatch m;
        if (std::regex_search(text, m, re))
            out.includes.push_back({m[1].str(), "", line});
        if (eol == kept.size())
            break;
        pos = eol + 1;
        ++line;
    }
    (void)lineOf;
}

// ---------------------------------------------------------------------
// Stat-path literals.
// ---------------------------------------------------------------------

void
extractStats(const std::string &kept, const std::vector<int> &lineOf,
             SourceFile &out)
{
    // Registration calls: the first argument of .counter/.gauge/
    // .histogram is the dotted path (or an expression producing one).
    static const std::regex callRe(
        R"(\.\s*(counter|gauge|histogram)\s*\()");
    for (auto it = std::sregex_iterator(kept.begin(), kept.end(),
                                        callRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(
            it->position() + it->length() - 1);
        std::string arg;
        if (matchCall(kept, open, &arg) == std::string::npos)
            continue;
        const int line = lineAt(lineOf, open);
        const std::string trimmed = trim(arg);
        const bool viaJoin = arg.find("joinPath") != std::string::npos;
        for (const std::string &lit : literalsIn(arg)) {
            if (lit.empty())
                continue;
            const bool whole = trimmed == "\"" + lit + "\"";
            const bool fragment = viaJoin || !whole;
            out.stats.push_back({lit, line, fragment});
        }
    }

    // EvalMetricDef initializer tables: rows of {"dotted.path", ...}.
    // These paths reach the registry via applyEvalDerived()-style
    // loops, so no .counter() literal exists for them.
    std::size_t pos = 0;
    while ((pos = kept.find("EvalMetricDef> defs = {", pos)) !=
           std::string::npos) {
        const std::size_t open = kept.find('{', pos);
        int depth = 0;
        std::size_t end = open;
        for (; end < kept.size(); ++end) {
            if (kept[end] == '{')
                ++depth;
            else if (kept[end] == '}' && --depth == 0)
                break;
        }
        static const std::regex rowRe(R"(\{\s*"([^"]+)\")");
        const std::string body = kept.substr(open, end - open);
        for (auto it = std::sregex_iterator(body.begin(), body.end(),
                                            rowRe);
             it != std::sregex_iterator(); ++it) {
            const std::size_t at =
                open + static_cast<std::size_t>(it->position());
            out.stats.push_back(
                {(*it)[1].str(), lineAt(lineOf, at), false});
        }
        pos = end;
    }
}

// ---------------------------------------------------------------------
// LVA_* knob literals.
// ---------------------------------------------------------------------

void
extractKnobs(const std::string &kept, const std::vector<int> &lineOf,
             SourceFile &out)
{
    static const std::regex re(R"re("(LVA_[A-Z0-9_]+)")re");
    for (auto it = std::sregex_iterator(kept.begin(), kept.end(), re);
         it != std::sregex_iterator(); ++it) {
        const std::size_t at = static_cast<std::size_t>(it->position());
        // Is this literal the direct argument of getenv? Look back
        // past whitespace and the opening parenthesis for the call
        // name.
        std::size_t j = at;
        while (j > 0 && std::isspace(static_cast<unsigned char>(
                            kept[j - 1])))
            --j;
        bool direct = false;
        if (j > 0 && kept[j - 1] == '(') {
            --j;
            while (j > 0 && std::isspace(static_cast<unsigned char>(
                                kept[j - 1])))
                --j;
            static const std::string fn = "getenv";
            direct = j >= fn.size() &&
                     kept.compare(j - fn.size(), fn.size(), fn) == 0;
        }
        out.knobs.push_back(
            {(*it)[1].str(), lineAt(lineOf, at), direct});
    }
}

// ---------------------------------------------------------------------
// Fault sites: faultPoint() definitions and site=kind references.
// ---------------------------------------------------------------------

void
extractFaultDefs(const std::string &kept,
                 const std::vector<int> &lineOf, SourceFile &out)
{
    static const std::regex callRe(R"(\bfaultPoint\s*\()");
    static const std::regex identRe(R"(^[A-Za-z_][A-Za-z0-9_]*$)");
    for (auto it = std::sregex_iterator(kept.begin(), kept.end(),
                                        callRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(
            it->position() + it->length() - 1);
        std::string arg;
        if (matchCall(kept, open, &arg) == std::string::npos)
            continue;
        const int line = lineAt(lineOf, open);
        std::string expr = trim(arg);

        // Identifier argument: chase the local `site = "..."` binding
        // backward (the sweep/service idiom).
        if (std::regex_match(expr, identRe)) {
            const std::regex bindRe("\\b" + expr +
                                    R"(\s*=\s*("[^"]*"[^;]*))");
            std::string best;
            for (auto b = std::sregex_iterator(kept.begin(),
                                               kept.end(), bindRe);
                 b != std::sregex_iterator(); ++b) {
                if (static_cast<std::size_t>(b->position()) < open)
                    best = (*b)[1].str();
            }
            if (best.empty())
                continue; // declaration/parameter, not a call site
            expr = best;
        }
        if (expr.empty() || expr[0] != '"')
            continue;
        const std::size_t close = expr.find('"', 1);
        if (close == std::string::npos)
            continue;
        const std::string lit = expr.substr(1, close - 1);
        const bool prefix =
            trim(expr.substr(close + 1)).rfind('+', 0) == 0;
        if (!lit.empty())
            out.faultDefs.push_back({lit, line, prefix});
    }
}

std::vector<FaultRef>
extractFaultRefs(const std::string &raw)
{
    // Spec grammar (util/fault.hh): site=kind[:ms][@trigger], where a
    // trailing '*' on the site makes it a prefix match.  Requiring at
    // least one '.' in the site keeps single-token test sites (p=throw
    // in fault_test.cc) and shell variable assignments out.
    static const std::regex re(
        R"(\b([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_*]+)+)=)"
        R"((?:throw|abort|allocfail|delay)\b)");
    std::vector<FaultRef> out;
    std::size_t pos = 0;
    int line = 1;
    while (pos <= raw.size()) {
        std::size_t eol = raw.find('\n', pos);
        if (eol == std::string::npos)
            eol = raw.size();
        const std::string text = raw.substr(pos, eol - pos);
        for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                            re);
             it != std::sregex_iterator(); ++it) {
            std::string site = (*it)[1].str();
            bool prefix = false;
            if (!site.empty() && site.back() == '*') {
                prefix = true;
                site.pop_back();
            }
            out.push_back({site, line, prefix});
        }
        if (eol == raw.size())
            break;
        pos = eol + 1;
        ++line;
    }
    return out;
}

// ---------------------------------------------------------------------
// Lock-order extraction.
//
// A linear scan over the hazard-stripped text (strings blanked, so
// every brace is a real brace) tracks brace scopes, classifying each
// one as namespace / class / function-body / plain block from the
// text just before the '{'.  Guard declarations push onto a stack;
// acquiring while the stack is non-empty records held->acquired
// edges.  Mutex identity is owner-qualified: the enclosing method's
// class (from a Qualifier::method definition or the enclosing
// class/struct scope), else the file stem — so the two `mutex_`
// members in service.cc (ServeStats, ServeLoop) stay distinct nodes.
// ---------------------------------------------------------------------

struct Scope
{
    enum Kind { Block, Namespace, Class, Function } kind = Block;
    std::string name; ///< class name or function owner
};

/** Identifier (possibly ::qualified) ending at @p end, or "". */
std::string
identBefore(const std::string &text, std::size_t end)
{
    std::size_t b = end;
    auto isIdent = [&](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':' || c == '~';
    };
    while (b > 0 && isIdent(text[b - 1]))
        --b;
    return text.substr(b, end - b);
}

/** Skip whitespace backward from @p i (exclusive); 0 when none left. */
std::size_t
skipWsBack(const std::string &text, std::size_t i)
{
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(text[i - 1])))
        --i;
    return i;
}

/**
 * Classify the brace opening at @p at.  For function bodies, *owner
 * receives the defining class (empty for free functions).
 */
Scope::Kind
classifyBrace(const std::string &text, std::size_t at,
              std::string *owner)
{
    std::size_t i = skipWsBack(text, at);
    // Tail keywords between ')' and '{' (const, noexcept, override).
    for (;;) {
        const std::size_t end = i;
        const std::string id = identBefore(text, end);
        if (id == "const" || id == "noexcept" || id == "override" ||
            id == "final") {
            i = skipWsBack(text, end - id.size());
            continue;
        }
        break;
    }
    if (i > 0 && text[i - 1] == ')') {
        // Walk back over the parameter list to the '(' and read the
        // name in front of it.
        int depth = 0;
        std::size_t j = i;
        while (j > 0) {
            --j;
            if (text[j] == ')')
                ++depth;
            else if (text[j] == '(' && --depth == 0)
                break;
        }
        const std::size_t nameEnd = skipWsBack(text, j);
        const std::string name = identBefore(text, nameEnd);
        if (name.empty() || name == "if" || name == "for" ||
            name == "while" || name == "switch" || name == "catch" ||
            name == "return")
            return Scope::Block;
        const std::size_t q = name.rfind("::");
        if (owner)
            *owner = q == std::string::npos ? "" : name.substr(0, q);
        return Scope::Function;
    }
    // `class X ... {` / `struct X ... {` / `namespace N {`
    static const std::regex classRe(
        R"((class|struct)\s+([A-Za-z_][A-Za-z0-9_]*)[^;{}()]*$)");
    static const std::regex nsRe(
        R"(namespace\s+[A-Za-z_:][A-Za-z0-9_:]*\s*$|namespace\s*$)");
    const std::size_t from = at > 160 ? at - 160 : 0;
    const std::string before = text.substr(from, at - from);
    std::smatch m;
    if (std::regex_search(before, m, classRe)) {
        if (owner)
            *owner = m[2].str();
        return Scope::Class;
    }
    if (std::regex_search(before, m, nsRe))
        return Scope::Namespace;
    return Scope::Block;
}

/** Strip `std::`, `this->`, and whitespace from a mutex expression. */
std::string
cleanMutexExpr(std::string expr)
{
    std::string out;
    for (char c : expr)
        if (!std::isspace(static_cast<unsigned char>(c)))
            out += c;
    auto drop = [&](const std::string &prefix) {
        if (out.rfind(prefix, 0) == 0)
            out = out.substr(prefix.size());
    };
    drop("this->");
    drop("std::");
    drop("*"); // unique_lock(*mutexPtr)
    return out;
}

struct GuardEvent
{
    enum Kind { Acquire, Unlock, Wait } kind;
    std::size_t at;
    std::string name;               ///< guard or cv variable name
    std::vector<std::string> exprs; ///< mutex exprs (Acquire)
    std::string guard;              ///< waited guard name (Wait)
};

void
extractLocks(const std::string &stripped, const std::string &stem,
             const std::vector<int> &lineOf, SourceFile &out)
{
    if (stripped.find("lock_guard") == std::string::npos &&
        stripped.find("unique_lock") == std::string::npos &&
        stripped.find("scoped_lock") == std::string::npos)
        return;

    // Collect guard/unlock/wait events with their offsets.
    std::vector<GuardEvent> events;
    static const std::regex guardRe(
        R"(\b(lock_guard|unique_lock|scoped_lock)\s*(?:<[^<>;]*>)?\s+)"
        R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
    for (auto it = std::sregex_iterator(stripped.begin(),
                                        stripped.end(), guardRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(
            it->position() + it->length() - 1);
        std::string args;
        if (matchCall(stripped, open, nullptr) == std::string::npos)
            continue;
        // All arguments: scoped_lock can take several mutexes.
        int depth = 0;
        std::size_t end = open;
        for (; end < stripped.size(); ++end) {
            if (stripped[end] == '(')
                ++depth;
            else if (stripped[end] == ')' && --depth == 0)
                break;
        }
        args = stripped.substr(open + 1, end - open - 1);
        GuardEvent ev;
        ev.kind = GuardEvent::Acquire;
        ev.at = open;
        ev.name = (*it)[2].str();
        int d = 0;
        std::string cur;
        for (std::size_t i2 = 0; i2 <= args.size(); ++i2) {
            const char c = i2 < args.size() ? args[i2] : ',';
            if (c == '(' || c == '<')
                ++d;
            else if (c == ')' || c == '>')
                --d;
            if (c == ',' && d == 0) {
                const std::string e = cleanMutexExpr(cur);
                if (!e.empty() && e.find("defer_lock") ==
                                      std::string::npos &&
                    e.find("adopt_lock") == std::string::npos)
                    ev.exprs.push_back(e);
                cur.clear();
            } else {
                cur += c;
            }
        }
        if (!ev.exprs.empty())
            events.push_back(std::move(ev));
    }
    static const std::regex unlockRe(
        R"(\b([A-Za-z_][A-Za-z0-9_]*)\.unlock\s*\()");
    for (auto it = std::sregex_iterator(stripped.begin(),
                                        stripped.end(), unlockRe);
         it != std::sregex_iterator(); ++it) {
        GuardEvent ev;
        ev.kind = GuardEvent::Unlock;
        ev.at = static_cast<std::size_t>(it->position());
        ev.name = (*it)[1].str();
        events.push_back(std::move(ev));
    }
    static const std::regex waitRe(
        R"(\b([A-Za-z_][A-Za-z0-9_]*)\.(?:wait|wait_for|wait_until)\s*)"
        R"(\(\s*([A-Za-z_][A-Za-z0-9_]*))");
    for (auto it = std::sregex_iterator(stripped.begin(),
                                        stripped.end(), waitRe);
         it != std::sregex_iterator(); ++it) {
        GuardEvent ev;
        ev.kind = GuardEvent::Wait;
        ev.at = static_cast<std::size_t>(it->position());
        ev.name = (*it)[1].str();
        ev.guard = (*it)[2].str();
        events.push_back(std::move(ev));
    }
    std::sort(events.begin(), events.end(),
              [](const GuardEvent &a, const GuardEvent &b) {
                  return a.at < b.at;
              });

    // Walk braces and events together.
    struct Held
    {
        std::string name;  ///< guard variable
        std::string mutex; ///< owner-qualified id
        int depth;         ///< brace depth at declaration
        bool released = false;
    };
    std::vector<Scope> scopes;
    std::vector<Held> stack;
    std::string classCtx;  ///< innermost class scope name
    std::string owner;     ///< current function's mutex owner
    int funcDepth = -1;    ///< brace depth of the current function body
    std::size_t ev = 0;
    int depth = 0;

    auto ownerFor = [&](const std::string &expr) {
        const std::string who = !owner.empty()
                                    ? owner
                                    : (!classCtx.empty() ? classCtx
                                                         : stem);
        // Expressions naming another object (pool_.mutex_) keep the
        // object spelled out; plain members get the owner qualifier.
        return who + "::" + expr;
    };

    for (std::size_t i = 0; i < stripped.size(); ++i) {
        while (ev < events.size() && events[ev].at == i) {
            const GuardEvent &e = events[ev];
            if (funcDepth >= 0) {
                if (e.kind == GuardEvent::Acquire) {
                    for (const std::string &expr : e.exprs) {
                        const std::string id = ownerFor(expr);
                        for (const Held &h : stack)
                            if (!h.released && h.mutex != id)
                                out.lockEdges.push_back(
                                    {h.mutex, id,
                                     lineAt(lineOf, e.at)});
                        stack.push_back({e.name, id, depth, false});
                    }
                } else if (e.kind == GuardEvent::Unlock) {
                    for (Held &h : stack)
                        if (h.name == e.name)
                            h.released = true;
                } else if (e.kind == GuardEvent::Wait) {
                    std::string waited;
                    for (const Held &h : stack)
                        if (h.name == e.guard && !h.released)
                            waited = h.mutex;
                    if (!waited.empty()) {
                        for (const Held &h : stack)
                            if (!h.released && h.mutex != waited)
                                out.cvWaits.push_back(
                                    {waited, h.mutex,
                                     lineAt(lineOf, e.at)});
                    }
                }
            }
            ++ev;
        }
        const char c = stripped[i];
        if (c == '{') {
            Scope s;
            std::string name;
            s.kind = classifyBrace(stripped, i, &name);
            s.name = name;
            if (s.kind == Scope::Function && funcDepth < 0) {
                funcDepth = depth;
                owner = !name.empty() ? name : classCtx;
            } else if (s.kind == Scope::Class) {
                classCtx = name;
            }
            scopes.push_back(s);
            ++depth;
        } else if (c == '}') {
            --depth;
            if (!scopes.empty()) {
                const Scope s = scopes.back();
                scopes.pop_back();
                if (s.kind == Scope::Function && depth == funcDepth) {
                    funcDepth = -1;
                    owner.clear();
                    stack.clear();
                } else if (s.kind == Scope::Class) {
                    classCtx.clear();
                    for (auto it = scopes.rbegin();
                         it != scopes.rend(); ++it) {
                        if (it->kind == Scope::Class) {
                            classCtx = it->name;
                            break;
                        }
                    }
                }
            }
            while (!stack.empty() && stack.back().depth > depth)
                stack.pop_back();
        }
    }
}

} // namespace

int
layerOf(const std::string &path)
{
    static const std::pair<const char *, int> map[] = {
        {"src/util/", 0},      {"src/core/", 1},
        {"src/cpu/", 1},       {"src/mem/", 1},
        {"src/noc/", 1},       {"src/sim/", 1},
        {"src/prefetch/", 1},  {"src/energy/", 1},
        {"src/workloads/", 1}, {"src/eval/", 2},
        {"tools/", 3},         {"bench/", 3},
        {"tests/", 3},
    };
    for (const auto &[prefix, layer] : map)
        if (path.rfind(prefix, 0) == 0)
            return layer;
    return -1;
}

SourceFile
parseSource(const std::string &relPath, const std::string &content)
{
    SourceFile out;
    out.path = relPath;
    out.layer = layerOf(relPath);
    out.suppressions =
        lint::parseSuppressions(relPath, content, "lva-audit");
    out.lintFindings = lint::lintSource(relPath, content);

    const std::string kept =
        lint::stripComments(content, /*keepStrings=*/true);
    const std::string stripped =
        lint::stripComments(content, /*keepStrings=*/false);
    const std::vector<int> lineOf = lint::buildLineTable(content);

    extractIncludes(kept, lineOf, out);
    extractStats(kept, lineOf, out);
    extractKnobs(kept, lineOf, out);
    extractFaultDefs(kept, lineOf, out);
    // References may live in comments (doc examples arm real sites);
    // scan the raw text.
    out.faultRefs = extractFaultRefs(content);

    std::string stem = relPath;
    const std::size_t slash = stem.find_last_of('/');
    if (slash != std::string::npos)
        stem = stem.substr(slash + 1);
    const std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos)
        stem = stem.substr(0, dot);
    extractLocks(stripped, stem, lineOf, out);

    if (content.find("lva-hot-path:") != std::string::npos) {
        const std::vector<bool> fenced =
            lint::hotPathFenceLines(content, lineOf.back());
        const auto first = std::find(fenced.begin(), fenced.end(), true);
        if (first != fenced.end())
            out.hotPathLine = static_cast<int>(first - fenced.begin());
    }
    return out;
}

TextFile
parseText(const std::string &relPath, const std::string &content)
{
    TextFile out;
    out.path = relPath;
    out.content = content;
    out.faultRefs = extractFaultRefs(content);
    return out;
}

void
finalizeModel(Project &project)
{
    std::set<std::string> known;
    for (const SourceFile &f : project.sources)
        known.insert(f.path);

    for (SourceFile &f : project.sources) {
        std::string dir;
        const std::size_t slash = f.path.find_last_of('/');
        if (slash != std::string::npos)
            dir = f.path.substr(0, slash + 1);
        for (Include &inc : f.includes) {
            for (const std::string &cand :
                 {"src/" + inc.target, "tools/" + inc.target,
                  dir + inc.target}) {
                if (known.count(cand)) {
                    inc.resolved = cand;
                    break;
                }
            }
        }
    }
    std::sort(project.sources.begin(), project.sources.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path < b.path;
              });
    std::sort(project.texts.begin(), project.texts.end(),
              [](const TextFile &a, const TextFile &b) {
                  return a.path < b.path;
              });
}

} // namespace lva::audit
