// Line-local lint fixture: iterating an unordered_map on an export
// path (src/eval/) on line 12 is a no-unordered-iteration finding.
#include <string>
#include <unordered_map>

std::unordered_map<std::string, double> rows;

double
sumInHashOrder()
{
    double total = 0.0;
    for (const auto &kv : rows)
        total += kv.second;
    return total;
}
