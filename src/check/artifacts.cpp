#include "check/artifacts.hpp"

#include <algorithm>
#include <charconv>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "check/json.hpp"
#include "util/csv.hpp"

namespace wsched::check {

namespace {

using Kind = JsonValue::Kind;
using Names = std::vector<std::string>;

const Names kPhases{"X", "i", "C", "b", "e", "M", "s", "t", "f"};
const Names kCategories{"request", "dispatch", "cpu", "disk", "memory", "fault",
                        "reservation", "probe", "log", "net", "ctrl"};
const Names kLedger{"admission", "backoff", "cpu", "cpu_wait",
                    "disk", "disk_wait", "hop", "net"};  // sorted
const Names kOutcomes{"completed", "shed", "timeout", "abandoned", "in_flight"};
const Names kFields{"job", "class", "outcome", "attempts", "arrival_ns",
                    "end_ns", "demand_ns", "stretch", "phases_ns", "spans"};
const Names kProbeHeader{"t_s", "node", "metric", "value"};
const Names kClusterSeries{"a_hat", "r_hat", "theta_limit", "master_fraction"};
const Names kNetSeries{"net_sent", "net_lost", "net_rpc_retries",
                       "net_stale_fallbacks", "net_split_brain_rounds",
                       "net_partition_active"};
const Names kCtrlSeries{"ctrl_w_hat", "ctrl_r_hat", "ctrl_theta_target",
                        "ctrl_powered", "ctrl_m"};

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument(what);
}

bool among(const std::string& name, const Names& names) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

const JsonValue* at(const JsonValue* v, const char* key) {
  return v == nullptr ? nullptr : v->find(key);
}

std::string text(const JsonValue* v) {
  return v != nullptr && v->is(Kind::kString) ? v->string : std::string();
}

bool is_number(const JsonValue* v) { return v && v->is(Kind::kNumber); }
bool is_int(const JsonValue* v) { return is_number(v) && v->integral; }
long long whole(const JsonValue* v) {
  return static_cast<long long>(v->number);
}

/// A value as messages and keys show it ("none" when absent).
std::string shown(const JsonValue* v) {
  if (v == nullptr) return "none";
  if (v->is(Kind::kString)) return "\"" + v->string + "\"";
  if (is_int(v)) return std::to_string(whole(v));
  return is_number(v) ? std::to_string(v->number) : "a non-number";
}

/// The job an async id names: the sink writes hex strings ("0xaf") where
/// instant args carry integers (175), so hedge bookkeeping joins on these.
std::string job_key(const JsonValue* id) {
  const std::string s = text(id);
  const bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  unsigned long long job = 0;
  const char* end = s.data() + s.size();
  const auto res =
      std::from_chars(s.data() + (hex ? 2 : 0), end, job, hex ? 16 : 10);
  if (s.empty() || res.ec != std::errc() || res.ptr != end) return shown(id);
  return std::to_string(job);
}

std::string listed(const Names& names) {
  std::string out;
  for (const std::string& name : names) out += (out.empty() ? "" : ", ") + name;
  return "[" + out + "]";
}

/// Chrome trace JSON: every event has a name, a known phase and an integer
/// pid; other than metadata, a known category and ts >= 0; "X" a dur >= 0,
/// "i" a scope, async and flow events an id. Async ends never outrun their
/// begins per (cat, id); a flow is one "s", "t" steps, then at most one
/// "f" with bp "e". Under --hedges each copy was announced by a "hedge"
/// instant for its job, a request has at most one copy, every copy ends,
/// and at most one side of a race is cancelled, only on a hedged request.
void trace_rules(const std::string& json, const ArtifactRequirements& req,
                 ArtifactCheck& out) {
  const JsonValue doc = parse_json(json);
  const JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is(Kind::kArray) || events->array.empty())
    fail("needs a non-empty \"traceEvents\" array");
  std::set<long long> pids;
  std::map<std::string, long> depth;  // (cat, id) -> open async spans
  // Flow id -> (ts, event index, phase); the index breaks ts ties.
  std::map<std::string, std::vector<std::tuple<double, std::size_t, char>>>
      flows;
  std::set<std::string> announced;  // jobs named by a hedge instant
  std::map<std::string, std::pair<long, long>> copies;  // job -> begins, open
  std::map<std::string, long> cancels;                  // job -> cancelled ends
  for (std::size_t index = 0; index < events->array.size(); ++index) {
    const JsonValue* event = &events->array[index];
    const std::string name = text(at(event, "name"));
    const std::string where =
        "event " + std::to_string(index) + " (" + name + "): ";
    if (name.empty()) fail(where + "not an object with a name");
    const std::string ph = text(at(event, "ph"));
    if (!among(ph, kPhases))
      fail(where + "bad phase " + shown(at(event, "ph")));
    if (!is_int(at(event, "pid"))) fail(where + "missing integer pid");
    ++out.phases[ph];
    pids.insert(whole(at(event, "pid")));
    if (ph == "M") continue;

    const std::string cat = text(at(event, "cat"));
    if (!among(cat, kCategories))
      fail(where + "bad category " + shown(at(event, "cat")));
    ++out.categories[cat];
    const JsonValue* ts = at(event, "ts");
    const JsonValue* dur = at(event, "dur");
    const JsonValue* id = at(event, "id");
    const JsonValue* args = at(event, "args");
    if (!is_number(ts) || ts->number < 0.0) fail(where + "bad ts " + shown(ts));
    if (ph == "X" && (!is_number(dur) || dur->number < 0.0))
      fail(where + "bad dur " + shown(dur));
    if (ph == "i" && !at(event, "s")) fail(where + "instant without scope");
    if (ph == "i" && name == "hedge" && cat == "dispatch") {
      if (!is_int(at(args, "job"))) fail(where + "hedge instant without job");
      announced.insert(shown(at(args, "job")));
    }
    if (ph.find_first_of("bestf") != std::string::npos && !id)
      fail(where + "async or flow event without id");
    if (ph == "b" || ph == "e") {
      const long step = ph == "b" ? 1 : -1;
      const std::string key = "(" + cat + ", " + shown(id) + ")";
      if ((depth[key] += step) < 0)
        fail(where + "async end before begin for " + key);
      const bool copy = name == "cgi-hedge" || name == "file-hedge";
      if (copy) copies[job_key(id)].first += step > 0;
      if (copy) copies[job_key(id)].second += step;
      if (step < 0 && (copy || name == "cgi" || name == "file") &&
          at(args, "cancelled"))
        ++cancels[job_key(id)];
    }
    if (ph == "f" && text(at(event, "bp")) != "e")
      fail(where + "flow finish without bp=e");
    if (ph == "s" || ph == "t" || ph == "f")
      flows[shown(id)].emplace_back(ts->number, index, ph[0]);
  }
  out.events = events->array.size();
  out.min_pid = *pids.begin();
  out.max_pid = *pids.rbegin();
  out.flows = flows.size();
  out.hedges = announced.size();

  for (auto& [id, steps] : flows) {
    std::sort(steps.begin(), steps.end());
    std::string seq;
    for (const auto& step : steps) seq += std::get<2>(step);
    const std::size_t rest = seq.find_first_not_of('t', 1);
    if (seq[0] != 's' || (rest != std::string::npos &&
                          (rest + 1 != seq.size() || seq[rest] != 'f')))
      fail("flow " + id + ": events '" + seq +
           "', not one 's', 't' steps, then at most one 'f'");
    // A run cut mid-request leaves flows open; only --spans refuses that.
    if (seq.back() != 'f' && req.spans) fail("flow " + id + ": no finish");
    out.open_flows += seq.back() != 'f';
  }
  if (req.spans && flows.empty()) fail("no flow events (required by --spans)");
  for (const std::string& ph : req.phases)
    if (!out.phases.count(ph)) fail("no '" + ph + "' events (required)");
  for (const auto& [lane, wanted] : {std::pair{"net", req.net},
                                     std::pair{"ctrl", req.ctrl}})
    if (wanted && !out.categories.count(lane))
      fail(std::string("no ") + lane + "-lane events (required)");
  if (!req.hedges) return;
  if (announced.empty()) fail("no hedge dispatch instants (required)");
  for (const auto& [job, counts] : copies) {
    const std::string where = "job " + job + ": ";
    if (!announced.count(job)) fail(where + "hedge copy without an instant");
    if (counts.first > 1) fail(where + "2+ hedge copies");
    if (counts.second != 0) fail(where + "hedge copy never ended");
  }
  for (const auto& [job, n] : cancels) {
    const std::string where = "job " + job + ": ";
    if (n > 1) fail(where + "both sides of the race cancelled");
    if (!announced.count(job)) fail(where + "cancelled but never hedged");
  }
}

template <class T>
bool parses(const std::string& field) {
  T value{};
  const char* end = field.data() + field.size();
  const auto res = std::from_chars(field.data(), end, value);
  return !field.empty() && res.ec == std::errc() && res.ptr == end;
}

/// Probe CSV: the header, numeric t_s/node/value, at least one sample, and
/// the cluster series (plus net_*/ctrl_* when required).
void probe_rules(const std::string& csv, const ArtifactRequirements& req,
                 ArtifactCheck& out) {
  std::set<std::string> metrics;
  std::istringstream lines(csv);
  std::string record;
  std::getline(lines, record);
  if (parse_csv_line(record) != kProbeHeader)
    fail("header is not t_s,node,metric,value");
  for (std::size_t line = 2; std::getline(lines, record); ++line) {
    const Names fields = parse_csv_line(record);
    const std::string row = "row " + std::to_string(line);
    if (fields.size() != 4)
      fail(row + " has " + std::to_string(fields.size()) + " fields");
    for (const std::size_t col : {0, 1, 3})
      if (col == 1 ? !parses<long long>(fields[col])
                   : !parses<double>(fields[col]))
        fail(row + ": non-numeric " + kProbeHeader[col] + " " + fields[col]);
    metrics.insert(fields[2]);
    ++out.samples;
  }
  if (out.samples == 0) fail("no samples");
  for (const auto& [series, wanted] :
       {std::pair{&kClusterSeries, true}, std::pair{&kNetSeries, req.net},
        std::pair{&kCtrlSeries, req.ctrl}}) {
    Names missing;
    for (const std::string& name : *series)
      if (wanted && !metrics.count(name)) missing.push_back(name);
    if (!missing.empty()) fail("missing metrics " + listed(missing));
  }
}

/// Span exemplars: every field, a known outcome, the eight ledger phases
/// summing exactly to end_ns - arrival_ns, worst-first within a class, and
/// a span tree with one root, parents first, children inside their parent.
void exemplar_rules(const std::string& json, ArtifactCheck& out) {
  const JsonValue doc = parse_json(json);
  const JsonValue* exemplars = doc.find("exemplars");
  const JsonValue* k = doc.find("k");
  if (!exemplars || !exemplars->is(Kind::kArray))
    fail("needs an \"exemplars\" array");
  if (!is_int(k) || whole(k) < 0) fail("bad k " + shown(k));
  out.k = whole(k);
  std::map<std::string, double> last_stretch;  // per class, worst first
  for (std::size_t index = 0; index < exemplars->array.size(); ++index) {
    const JsonValue* ex = &exemplars->array[index];
    const std::string where = "exemplar " + std::to_string(index) + ": ";
    for (const std::string& field : kFields)
      if (!at(ex, field.c_str())) fail(where + "missing '" + field + "'");
    if (!among(text(at(ex, "outcome")), kOutcomes))
      fail(where + "bad outcome " + shown(at(ex, "outcome")));
    // Exact in integers: each term is below 2^53, so eight cannot overflow.
    const JsonValue* arrival = at(ex, "arrival_ns");
    const JsonValue* end = at(ex, "end_ns");
    bool integers = is_int(arrival) && is_int(end);
    long long sum = 0;
    Names names;
    for (const auto& [name, value] : at(ex, "phases_ns")->object) {
      names.push_back(name);
      integers = integers && is_int(&value);
      sum += integers ? whole(&value) : 0;
    }
    std::sort(names.begin(), names.end());
    if (names != kLedger)
      fail(where + "phase set " + listed(names) + " != ledger phases");
    if (!integers) fail(where + "ledger fields must be integer nanoseconds");
    const long long sojourn = whole(end) - whole(arrival);
    if (sojourn < 0) fail(where + "end before arrival " + shown(arrival));
    if (sum != sojourn)
      fail(where + "closure violated: sum(phases)=" + std::to_string(sum) +
           " != end-arrival=" + std::to_string(sojourn));
    const JsonValue* cls = at(ex, "class");
    const JsonValue* stretch = at(ex, "stretch");
    if (!cls->is(Kind::kString) || !is_number(stretch))
      fail(where + "bad class " + shown(cls) + " or stretch " + shown(stretch));
    const auto [last, fresh] = last_stretch.try_emplace(cls->string, 0.0);
    if (!fresh && stretch->number > last->second + 1e-12)
      fail(where + "stretch not worst-first within class " + shown(cls));
    last->second = stretch->number;

    const JsonValue* spans = at(ex, "spans");
    if (!spans->is(Kind::kArray) || spans->array.empty())
      fail(where + "empty span tree");
    int roots = 0;
    for (std::size_t i = 0; i < spans->array.size(); ++i) {
      const JsonValue* span = &spans->array[i];
      const std::string here = where + "span " + std::to_string(i) + ": ";
      const JsonValue* start = at(span, "start_ns");
      const JsonValue* stop = at(span, "end_ns");
      const JsonValue* parent = at(span, "parent");
      if (!is_int(start) || !is_int(stop) || whole(stop) < whole(start))
        fail(here + "bad bounds [" + shown(start) + ", " + shown(stop) + "]");
      if (is_int(parent) && whole(parent) == -1) {
        ++roots;
        continue;
      }
      if (!is_int(parent) || whole(parent) < 0 ||
          whole(parent) >= static_cast<long long>(i))
        fail(here + "parent " + shown(parent) + " does not precede it");
      const JsonValue* up = &spans->array[std::size_t(whole(parent))];
      if (whole(start) < whole(at(up, "start_ns")) ||
          whole(stop) > whole(at(up, "end_ns")))
        fail(here + "outside parent " + shown(parent));
    }
    if (roots != 1) fail(where + std::to_string(roots) + " root spans");
    out.spans += spans->array.size();
  }
  out.exemplars = exemplars->array.size();
}

/// Runs `rules`, recording the first violation or reader error.
template <class Rules>
ArtifactCheck checked(Rules rules) {
  ArtifactCheck out;
  try {
    rules(out);
  } catch (const std::invalid_argument& e) {
    out.violation = e.what();
  }
  return out;
}

}  // namespace

ArtifactCheck check_trace(const std::string& json,
                          const ArtifactRequirements& req) {
  return checked([&](ArtifactCheck& out) { trace_rules(json, req, out); });
}

ArtifactCheck check_probes(const std::string& csv,
                           const ArtifactRequirements& req) {
  return checked([&](ArtifactCheck& out) { probe_rules(csv, req, out); });
}

ArtifactCheck check_exemplars(const std::string& json) {
  return checked([&](ArtifactCheck& out) { exemplar_rules(json, out); });
}

}  // namespace wsched::check
