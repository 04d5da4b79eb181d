/**
 * @file
 * Checks of the benchmark's own helpers: the tail-percentile rule, the
 * fast decile, the seeded Poisson schedule, and the result line. Exits 0
 * when all pass.
 *
 *   .bench_build/bt_perfbench_selftest   (or: python3 perfbench/run.py --self-test)
 */

#include <cstdio>
#include <string>

#include "support.hpp"

namespace {

int failures = 0;

void
expect(bool ok, const char* what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

std::size_t
occurrences(const std::string& text, const std::string& needle)
{
    std::size_t count = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++count;
    return count;
}

} // namespace

int
main()
{
    using namespace bt::perfbench;

    // The highest percentile with at least ten samples beyond it.
    expect(tailPercentileFor(0) == 50.0, "no samples: median");
    expect(tailPercentileFor(19) == 50.0, "19 samples: median");
    expect(tailPercentileFor(20) == 50.0, "20 samples: p50 (10 beyond)");
    expect(tailPercentileFor(99) == 50.0, "99 samples: p50 (p90 has 9.9)");
    expect(tailPercentileFor(100) == 90.0, "100 samples: p90");
    expect(tailPercentileFor(999) == 90.0, "999 samples: p90");
    expect(tailPercentileFor(1000) == 99.0, "1000 samples: p99");
    expect(tailPercentileFor(10000) == 99.9, "10000 samples: p99.9");
    expect(tailPercentileFor(100000) == 99.99, "100000 samples: p99.99");
    expect(tailPercentileFor(10000000) == 99.99, "ladder tops at p99.99");
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(i);
    const Tail t = tailOf(xs);
    expect(t.percentile == 99.0 && t.value > 989.0 && t.value < 991.0,
           "tailOf(1..1000) is p99 ~ 990");

    // The fast decile of window rates.
    expect(fastRate(xs) > 900.0 && fastRate(xs) < 901.0,
           "fastRate(1..1000) is p90 ~ 900.1");

    // The open-loop schedule is a pure function of its seed.
    const auto a = poissonSchedule(7, 1000.0, 2.0);
    const auto b = poissonSchedule(7, 1000.0, 2.0);
    const auto c = poissonSchedule(8, 1000.0, 2.0);
    expect(a == b, "same seed, same schedule");
    expect(a != c, "different seed, different schedule");
    bool ascending = !a.empty() && a.front() >= 0.0 && a.back() < 2.0;
    for (std::size_t i = 1; i < a.size(); ++i)
        ascending = ascending && a[i - 1] <= a[i];
    expect(ascending, "due times ascend inside the phase");
    expect(a.size() > 1800 && a.size() < 2200,
           "about rate x seconds arrivals");

    // One named entry per metric in the result line.
    MetricSet m;
    m.add("setup_s", 0.5, "s");
    m.add("p50_ms", 1.25, "ms");
    m.add("p50_ms_tail", 3.0, "ms");
    const std::string line = m.resultJson(true, 10, 0);
    expect(m.entries().size() == 3, "three metrics recorded");
    expect(occurrences(line, "\"setup_s\":") == 1
               && occurrences(line, "\"p50_ms\":") == 1
               && occurrences(line, "\"p50_ms_tail\":") == 1,
           "each metric named exactly once");
    expect(occurrences(line, "\"value\":") == 3
               && occurrences(line, "\"unit\":") == 3,
           "one value and one unit per metric");
    expect(line.rfind("{\"correct\": true, \"attempted\": 10, "
                      "\"failed\": 0, \"metrics\": {",
                      0)
               == 0,
           "result keys in order");
    expect(line.find("\"value\": 1.25,") != std::string::npos,
           "values keep their digits");

    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures == 0 ? 0 : 1;
}
