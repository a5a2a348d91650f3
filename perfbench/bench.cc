#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench
{

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Digest::addU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    addU64(bits);
}

void
Digest::add(std::span<const double> v)
{
    for (const double x : v)
        add(x);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

bool
Report::check(bool cond, const std::string &what)
{
    if (!cond) {
        correct = false;
        if (errors.size() < 32)
            errors.push_back(what);
    }
    return cond;
}

Tracer::Scope::Scope(Tracer *t, const char *name, std::uint32_t op)
    : tracer(t)
{
    if (!tracer)
        return;
    Span s;
    s.id = static_cast<std::uint32_t>(tracer->spans.size() + 1);
    s.parent = tracer->open.empty()
                   ? 0
                   : tracer->spans[tracer->open.back()].id;
    s.op = op;
    s.name = name;
    index = tracer->spans.size();
    tracer->open.push_back(index);
    s.begin = Clock::now();
    tracer->spans.push_back(s);
}

Tracer::Scope::~Scope()
{
    if (!tracer)
        return;
    tracer->spans[index].end = Clock::now();
    tracer->open.pop_back();
}

std::uint32_t
Tracer::add(const char *name, std::uint32_t op, std::uint32_t parent,
            Clock::time_point begin, Clock::time_point end)
{
    if (!enabledFlag)
        return 0;
    Span s;
    s.id = static_cast<std::uint32_t>(spans.size() + 1);
    s.parent = parent;
    s.op = op;
    s.name = name;
    s.begin = begin;
    s.end = end;
    spans.push_back(s);
    return s.id;
}

std::map<std::string, Tracer::Totals>
Tracer::allTotals() const
{
    // Span ids are 1-based vector positions, so a parent is found by
    // index; self time = duration minus the children's durations.
    std::vector<double> childMs(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent != 0)
            childMs[s.parent - 1] += msBetween(s.begin, s.end);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Totals &t = out[spans[i].name];
        const double ms = msBetween(spans[i].begin, spans[i].end);
        t.totalMs += ms;
        t.selfMs += ms - childMs[i];
        ++t.count;
    }
    return out;
}

Tracer::Totals
Tracer::totals(const std::string &name) const
{
    const auto all = allTotals();
    const auto it = all.find(name);
    return it == all.end() ? Totals{} : it->second;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const Clock::time_point t0 =
        spans.empty() ? Clock::time_point{} : spans.front().begin;
    char line[256];
    for (const Span &s : spans) {
        std::snprintf(line, sizeof(line),
                      "{\"id\":%u,\"parent\":%u,\"op\":%u,\"name\":\"%s\","
                      "\"begin_us\":%.3f,\"end_us\":%.3f}\n",
                      s.id, s.parent, s.op, s.name,
                      msBetween(t0, s.begin) * 1e3,
                      msBetween(t0, s.end) * 1e3);
        os << line;
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
