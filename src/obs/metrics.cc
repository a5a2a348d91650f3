#include "obs/metrics.hh"

#include <algorithm>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace vsync::obs
{

void
Gauge::add(double x)
{
    double cur = val.load(std::memory_order_relaxed);
    while (!val.compare_exchange_weak(cur, cur + x,
                                      std::memory_order_relaxed))
        ;
}

void
Gauge::recordMax(double x)
{
    double cur = val.load(std::memory_order_relaxed);
    while (cur < x &&
           !val.compare_exchange_weak(cur, x, std::memory_order_relaxed))
        ;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upperBounds(std::move(upper_bounds)),
      buckets(upperBounds.size() + 1)
{
    VSYNC_ASSERT(std::is_sorted(upperBounds.begin(), upperBounds.end()),
                 "histogram bounds must be sorted (%zu bounds)",
                 upperBounds.size());
    for (std::size_t i = 1; i < upperBounds.size(); ++i)
        VSYNC_ASSERT(upperBounds[i - 1] < upperBounds[i],
                     "duplicate histogram bound %g", upperBounds[i]);
}

void
Histogram::observe(double v)
{
    const auto it =
        std::lower_bound(upperBounds.begin(), upperBounds.end(), v);
    const auto idx =
        static_cast<std::size_t>(it - upperBounds.begin());
    buckets[idx].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    return buckets.at(i).load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::totalCount() const
{
    std::uint64_t total = 0;
    for (const auto &b : buckets)
        total += b.load(std::memory_order_relaxed);
    return total;
}

MetricsRegistry::Entry &
MetricsRegistry::lookup(const std::string &name, Kind kind,
                        std::vector<double> bounds)
{
    VSYNC_ASSERT(!name.empty(), "metric names must be non-empty");
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(name);
    if (it != entries.end()) {
        if (it->second.kind != kind)
            fatal("metric '%s' already registered as a different kind",
                  name.c_str());
        return it->second;
    }
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::Counter:
        counters.emplace_back();
        e.counter = &counters.back();
        break;
      case Kind::Gauge:
        gauges.emplace_back();
        e.gauge = &gauges.back();
        break;
      case Kind::Histogram:
        histograms.emplace_back(std::move(bounds));
        e.histogram = &histograms.back();
        break;
    }
    return entries.emplace(name, e).first->second;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return *lookup(name, Kind::Counter, {}).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return *lookup(name, Kind::Gauge, {}).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> upper_bounds)
{
    Entry &e = lookup(name, Kind::Histogram, std::move(upper_bounds));
    return *e.histogram;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

void
MetricsRegistry::writeJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mutex);
    w.beginObject();
    for (const auto &[name, e] : entries) { // std::map: sorted by name
        w.key(name).beginObject();
        switch (e.kind) {
          case Kind::Counter:
            w.keyValue("type", "counter")
                .keyValue("value", e.counter->value());
            break;
          case Kind::Gauge:
            w.keyValue("type", "gauge")
                .keyValue("value", e.gauge->value());
            break;
          case Kind::Histogram: {
            const Histogram &h = *e.histogram;
            w.keyValue("type", "histogram")
                .keyValue("count", h.totalCount());
            w.key("bounds").beginArray();
            for (const double b : h.bounds())
                w.value(b);
            w.endArray();
            w.key("buckets").beginArray();
            for (std::size_t i = 0; i <= h.bounds().size(); ++i)
                w.value(h.bucketCount(i));
            w.endArray();
            break;
          }
        }
        w.endObject();
    }
    w.endObject();
}

std::string
MetricsRegistry::toJsonString() const
{
    std::ostringstream os;
    JsonWriter w(os);
    writeJson(w);
    return os.str();
}

} // namespace vsync::obs
