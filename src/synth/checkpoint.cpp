#include "synth/checkpoint.hpp"

#include <cstdio>
#include <cstring>

#include "util/csv.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"

namespace abg::synth {

namespace {

using util::Result;
using util::Status;
using util::StatusCode;

constexpr const char* kMagic = "abagnale-checkpoint v1";

// %a hex-float round-trips every finite double bit-exactly and prints
// inf/nan as strtod-parseable words.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

void append_rng(std::vector<std::string>& f, const util::Rng::State& st) {
  for (std::uint64_t s : st.s) f.push_back(fmt_u64(s));
  f.push_back(st.have_cached_normal ? "1" : "0");
  f.push_back(fmt_double(st.cached_normal));
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a step over the 8 bytes of v.
  h ^= v;
  return h * 0x100000001b3ull;
}

std::uint64_t mix_double(std::uint64_t h, double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return mix(h, bits);
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  for (char c : line) {
    if (c == '\t') {
      out.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  out.push_back(std::move(field));
  return out;
}

// Line-oriented reader with tagged parse errors.
struct Reader {
  std::vector<std::string> lines;
  std::size_t pos = 0;

  Status error(const char* what) const {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "line %zu: %s", pos, what);
    return Status(StatusCode::kParseError, buf);
  }

  // Next line's tab-separated fields; fields[0] must equal `keyword` and the
  // count must be at least `min_fields` (keyword included).
  Result<std::vector<std::string>> expect(const char* keyword, std::size_t min_fields) {
    if (pos >= lines.size()) return error("unexpected end of checkpoint");
    auto fields = split_tabs(lines[pos]);
    ++pos;
    if (fields.empty() || fields[0] != keyword) return error("unexpected record");
    if (fields.size() < min_fields) return error("truncated record");
    return fields;
  }
};

bool parse_rng(const std::vector<std::string>& f, std::size_t at, util::Rng::State* out) {
  if (at + 6 > f.size()) return false;
  for (int i = 0; i < 4; ++i) {
    if (!util::parse_u64(f[at + static_cast<std::size_t>(i)], &out->s[i])) return false;
  }
  if (f[at + 4] != "0" && f[at + 4] != "1") return false;
  out->have_cached_normal = f[at + 4] == "1";
  return util::parse_double(f[at + 5], &out->cached_normal);
}

bool parse_size(const std::string& s, std::size_t* out) {
  std::uint64_t v = 0;
  if (!util::parse_u64(s, &v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_int(const std::string& s, int* out) {
  std::uint64_t v = 0;
  bool neg = !s.empty() && s[0] == '-';
  if (!util::parse_u64(neg ? s.substr(1) : s, &v) || v > 1u << 30) return false;
  *out = neg ? -static_cast<int>(v) : static_cast<int>(v);
  return true;
}

}  // namespace

std::uint64_t segment_pool_fingerprint(const std::vector<trace::Segment>& segments) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = mix(h, segments.size());
  for (const auto& seg : segments) {
    h = mix(h, seg.samples.size());
    for (const auto& s : seg.samples) {
      // The fields replay() and observed_series_pkts() read: anything that
      // can change a distance changes the fingerprint.
      h = mix_double(h, s.sig.now);
      h = mix_double(h, s.sig.mss);
      h = mix_double(h, s.sig.cwnd);
      h = mix_double(h, s.sig.inflight);
      h = mix_double(h, s.sig.acked_bytes);
      h = mix_double(h, s.sig.rtt);
      h = mix_double(h, s.sig.srtt);
      h = mix_double(h, s.sig.min_rtt);
      h = mix_double(h, s.sig.max_rtt);
      h = mix_double(h, s.sig.ack_rate);
      h = mix_double(h, s.sig.rtt_gradient);
      h = mix_double(h, s.sig.time_since_loss);
      h = mix_double(h, s.sig.cwnd_at_loss);
      h = mix_double(h, s.cwnd_after);
      h = mix(h, static_cast<std::uint64_t>(s.is_dup));
    }
  }
  return h;
}

util::Status save_checkpoint(const Checkpoint& ck, const std::string& path) {
  if (util::fault::io_fail("checkpoint.save")) {
    return Status(StatusCode::kIoError, "injected I/O fault writing " + path);
  }
  std::string out = kMagic;
  out += '\n';
  auto line = [&out](std::vector<std::string> fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += '\t';
      out += fields[i];
    }
    out += '\n';
  };
  line({"pool_fp", fmt_u64(ck.pool_fingerprint)});
  line({"seed", fmt_u64(ck.seed)});
  line({"next_iter", fmt_u64(static_cast<std::uint64_t>(ck.next_iter))});
  line({"n", fmt_u64(static_cast<std::uint64_t>(ck.n))});
  line({"k", fmt_u64(static_cast<std::uint64_t>(ck.k))});
  line({"best", fmt_double(ck.best.distance), ck.best.sketch, ck.best.handler});
  {
    std::vector<std::string> f{"sampler_rng"};
    append_rng(f, ck.sampler_rng);
    line(std::move(f));
  }
  {
    std::vector<std::string> f{"sampler_selected"};
    for (std::size_t idx : ck.sampler_selected) f.push_back(fmt_u64(idx));
    line(std::move(f));
  }
  {
    std::vector<std::string> f{"live"};
    for (std::size_t idx : ck.live) f.push_back(fmt_u64(idx));
    line(std::move(f));
  }
  line({"buckets", fmt_u64(ck.buckets.size())});
  for (const auto& b : ck.buckets) {
    std::vector<std::string> f{"bucket",
                               b.label,
                               fmt_u64(b.sketches),
                               fmt_u64(b.handlers_scored),
                               b.exhausted ? "1" : "0"};
    append_rng(f, b.rng);
    f.push_back(fmt_double(b.best_distance));
    f.push_back(b.best_sketch);
    f.push_back(b.best_handler);
    line(std::move(f));
  }
  line({"candidates", fmt_u64(ck.candidates.size())});
  for (const auto& c : ck.candidates) {
    line({"cand", fmt_double(c.distance), c.sketch, c.handler});
  }
  line({"iterations", fmt_u64(ck.iterations.size())});
  for (const auto& it : ck.iterations) {
    // The trailing best_distance was appended after the format shipped; the
    // reader tolerates its absence, so old checkpoints stay loadable.
    line({"iter", fmt_u64(static_cast<std::uint64_t>(it.n_target)),
          fmt_u64(static_cast<std::uint64_t>(it.keep)), fmt_u64(it.segments_used),
          fmt_double(it.seconds), fmt_u64(it.buckets.size()), fmt_double(it.best_distance)});
    for (const auto& br : it.buckets) {
      line({"ib", br.label, fmt_double(br.score), fmt_u64(br.sketches_enumerated),
            fmt_u64(br.handlers_scored), br.exhausted ? "1" : "0", br.retained ? "1" : "0"});
    }
  }

  // Durable, not just atomic: the file is fsync'd before the rename and the
  // parent directory after it, so a checkpoint the serve WAL points at can
  // never be a torn or absent file after power loss (ISSUE 8).
  return util::atomic_write_file(path, out, /*durable=*/true);
}

util::Result<Checkpoint> load_checkpoint(const std::string& path) {
  if (util::fault::io_fail("checkpoint.load")) {
    return Status(StatusCode::kIoError, "injected I/O fault reading " + path);
  }
  std::string content;
  if (!util::read_file(path, &content)) {
    return Status(StatusCode::kIoError, "cannot read " + path);
  }

  Reader r;
  {
    std::string cur;
    for (char c : content) {
      if (c == '\n') {
        r.lines.push_back(std::move(cur));
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) r.lines.push_back(std::move(cur));
  }
  if (r.lines.empty() || r.lines[0] != kMagic) {
    return Status(StatusCode::kParseError, "not an abagnale checkpoint: " + path);
  }
  r.pos = 1;

  Checkpoint ck;
  auto fail = [&](const char* what) { return r.error(what).with_context(path); };

  auto u64_field = [&r](const char* key, std::uint64_t* out) -> Status {
    auto f = r.expect(key, 2);
    if (!f.ok()) return f.status();
    if (!util::parse_u64((*f)[1], out)) return r.error("bad integer");
    return Status::ok();
  };
  std::uint64_t tmp = 0;
  if (auto st = u64_field("pool_fp", &ck.pool_fingerprint); !st.is_ok()) return st;
  if (auto st = u64_field("seed", &ck.seed); !st.is_ok()) return st;
  if (auto st = u64_field("next_iter", &tmp); !st.is_ok()) return st;
  ck.next_iter = static_cast<int>(tmp);
  if (auto st = u64_field("n", &tmp); !st.is_ok()) return st;
  ck.n = static_cast<int>(tmp);
  if (auto st = u64_field("k", &tmp); !st.is_ok()) return st;
  ck.k = static_cast<int>(tmp);

  {
    auto f = r.expect("best", 4);
    if (!f.ok()) return f.status();
    if (!util::parse_double((*f)[1], &ck.best.distance)) return fail("bad best distance");
    ck.best.sketch = (*f)[2];
    ck.best.handler = (*f)[3];
  }
  {
    auto f = r.expect("sampler_rng", 7);
    if (!f.ok()) return f.status();
    if (!parse_rng(*f, 1, &ck.sampler_rng)) return fail("bad sampler rng");
  }
  {
    auto f = r.expect("sampler_selected", 1);
    if (!f.ok()) return f.status();
    for (std::size_t i = 1; i < f->size(); ++i) {
      std::size_t idx = 0;
      if (!parse_size((*f)[i], &idx)) return fail("bad sampler index");
      ck.sampler_selected.push_back(idx);
    }
  }
  {
    auto f = r.expect("live", 1);
    if (!f.ok()) return f.status();
    for (std::size_t i = 1; i < f->size(); ++i) {
      std::size_t idx = 0;
      if (!parse_size((*f)[i], &idx)) return fail("bad live index");
      ck.live.push_back(idx);
    }
  }
  {
    auto f = r.expect("buckets", 2);
    if (!f.ok()) return f.status();
    std::size_t count = 0;
    if (!parse_size((*f)[1], &count)) return fail("bad bucket count");
    for (std::size_t i = 0; i < count; ++i) {
      auto bf = r.expect("bucket", 14);
      if (!bf.ok()) return bf.status();
      BucketCheckpoint b;
      b.label = (*bf)[1];
      if (!parse_size((*bf)[2], &b.sketches)) return fail("bad sketch count");
      if (!parse_size((*bf)[3], &b.handlers_scored)) return fail("bad handler count");
      b.exhausted = (*bf)[4] == "1";
      if (!parse_rng(*bf, 5, &b.rng)) return fail("bad bucket rng");
      if (!util::parse_double((*bf)[11], &b.best_distance)) return fail("bad bucket distance");
      b.best_sketch = (*bf)[12];
      b.best_handler = (*bf)[13];
      ck.buckets.push_back(std::move(b));
    }
  }
  {
    auto f = r.expect("candidates", 2);
    if (!f.ok()) return f.status();
    std::size_t count = 0;
    if (!parse_size((*f)[1], &count)) return fail("bad candidate count");
    for (std::size_t i = 0; i < count; ++i) {
      auto cf = r.expect("cand", 4);
      if (!cf.ok()) return cf.status();
      ScoredHandlerCheckpoint c;
      if (!util::parse_double((*cf)[1], &c.distance)) return fail("bad candidate distance");
      c.sketch = (*cf)[2];
      c.handler = (*cf)[3];
      ck.candidates.push_back(std::move(c));
    }
  }
  {
    auto f = r.expect("iterations", 2);
    if (!f.ok()) return f.status();
    std::size_t count = 0;
    if (!parse_size((*f)[1], &count)) return fail("bad iteration count");
    for (std::size_t i = 0; i < count; ++i) {
      auto itf = r.expect("iter", 6);
      if (!itf.ok()) return itf.status();
      IterationReport rep;
      std::size_t nbuckets = 0;
      if (!parse_int((*itf)[1], &rep.n_target) || !parse_int((*itf)[2], &rep.keep) ||
          !parse_size((*itf)[3], &rep.segments_used) ||
          !util::parse_double((*itf)[4], &rep.seconds) || !parse_size((*itf)[5], &nbuckets)) {
        return fail("bad iteration record");
      }
      // best_distance, appended in a later format revision: present in new
      // checkpoints, silently defaulted for old ones. Checkpoints written
      // while the evaluation memo cache existed carry two more fields (its
      // hit and miss tallies), which are no longer read.
      if (itf->size() >= 7 && !util::parse_double((*itf)[6], &rep.best_distance)) {
        return fail("bad iteration convergence record");
      }
      for (std::size_t j = 0; j < nbuckets; ++j) {
        auto ibf = r.expect("ib", 7);
        if (!ibf.ok()) return ibf.status();
        BucketReport br;
        br.label = (*ibf)[1];
        if (!util::parse_double((*ibf)[2], &br.score) ||
            !parse_size((*ibf)[3], &br.sketches_enumerated) ||
            !parse_size((*ibf)[4], &br.handlers_scored)) {
          return fail("bad iteration bucket record");
        }
        br.exhausted = (*ibf)[5] == "1";
        br.retained = (*ibf)[6] == "1";
        rep.buckets.push_back(std::move(br));
      }
      ck.iterations.push_back(std::move(rep));
    }
  }
  return ck;
}

}  // namespace abg::synth
