/**
 * @file
 * The paper's full-system claims (Figs. 10-11), checked against the
 * committed results/fig10a_speedup.csv, fig10b_energy.csv and
 * fig11_edp.csv. Each claim is a predicate over one parsed CSV; each
 * test also reverses the row the claim is about, in memory, and
 * expects the predicate to fail, so a predicate that holds for any
 * ordering cannot pass unnoticed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace lva {
namespace {

/** A results CSV: one row of numbers per benchmark (and "average"),
 *  one column per approximation degree. Percent signs are dropped. */
struct DegreeTable
{
    std::vector<int> degrees;
    std::map<std::string, std::vector<double>> rows;

    /** The column of @p degree. */
    std::size_t
    col(int degree) const
    {
        const auto it = std::find(degrees.begin(), degrees.end(), degree);
        EXPECT_NE(it, degrees.end()) << "no degree " << degree;
        return static_cast<std::size_t>(it - degrees.begin());
    }

    const std::vector<double> &
    row(const std::string &name) const
    {
        const auto it = rows.find(name);
        EXPECT_NE(it, rows.end()) << "no row " << name;
        static const std::vector<double> none;
        return it == rows.end() ? none : it->second;
    }

    /** A copy with @p name's row reversed. */
    DegreeTable
    reversed(const std::string &name) const
    {
        DegreeTable t = *this;
        std::vector<double> &r = t.rows.at(name);
        std::reverse(r.begin(), r.end());
        return t;
    }
};

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ','))
        fields.push_back(field);
    return fields;
}

/** Parse results/@p name: header `benchmark,approx-0,approx-2,...`. */
DegreeTable
readTable(const std::string &name)
{
    std::ifstream in(std::string(LVA_COMMITTED_RESULTS) + "/" + name);
    EXPECT_TRUE(in) << name;
    DegreeTable t;
    std::string line;
    if (!std::getline(in, line))
        return t;
    const std::vector<std::string> header = splitCsv(line);
    for (std::size_t i = 1; i < header.size(); ++i) {
        const std::string prefix = "approx-";
        EXPECT_EQ(header[i].rfind(prefix, 0), 0u) << header[i];
        t.degrees.push_back(std::stoi(header[i].substr(prefix.size())));
    }
    while (std::getline(in, line)) {
        const std::vector<std::string> fields = splitCsv(line);
        EXPECT_EQ(fields.size(), header.size()) << line;
        std::vector<double> &row = t.rows[fields.at(0)];
        for (std::size_t i = 1; i < fields.size(); ++i) {
            std::string cell = fields[i];
            if (!cell.empty() && cell.back() == '%')
                cell.pop_back();
            row.push_back(std::stod(cell));
        }
    }
    return t;
}

bool
strictlyFalling(const std::vector<double> &xs)
{
    return !xs.empty() &&
           std::adjacent_find(xs.begin(), xs.end(),
                              [](double a, double b) { return b >= a; }) ==
               xs.end();
}

bool
neverFalling(const std::vector<double> &xs)
{
    return !xs.empty() && std::is_sorted(xs.begin(), xs.end());
}

/** Fig. 11: average L1-miss EDP falls at every step from degree 0 to 16. */
bool
averageEdpFalls(const DegreeTable &edp)
{
    return strictlyFalling(edp.row("average"));
}

/** Fig. 10a: @p bench's speedup never falls as the degree rises. */
bool
speedupNeverFalls(const DegreeTable &speedup, const std::string &bench)
{
    return neverFalling(speedup.row(bench));
}

/** Fig. 10b: average energy savings are negative at degree 0 and
 *  higher at degree 16 than at any other degree. */
bool
averageEnergyNegativeThenBestAtSixteen(const DegreeTable &energy)
{
    const std::vector<double> &avg = energy.row("average");
    if (avg.empty())
        return false;
    const double at16 = avg[energy.col(16)];
    for (std::size_t i = 0; i < avg.size(); ++i)
        if (i != energy.col(16) && avg[i] >= at16)
            return false;
    return avg[energy.col(0)] < 0.0;
}

/** Fig. 10b: at degree 16, bodytrack saves more energy than any other
 *  benchmark. */
bool
bodytrackSavesMostAtSixteen(const DegreeTable &energy)
{
    const std::size_t c = energy.col(16);
    const std::vector<double> &body = energy.row("bodytrack");
    if (body.empty())
        return false;
    for (const auto &[bench, row] : energy.rows)
        if (bench != "bodytrack" && bench != "average" && row[c] >= body[c])
            return false;
    return true;
}

TEST(PaperClaims, AverageEdpFallsWithDegree)
{
    // Paper, Fig. 11: average EDP 0.581 at degree 0, 0.462 at 4 and
    // 0.362 at 16.
    const DegreeTable edp = readTable("fig11_edp.csv");
    EXPECT_TRUE(averageEdpFalls(edp));
    EXPECT_FALSE(averageEdpFalls(edp.reversed("average")));
}

TEST(PaperClaims, BodytrackAndCannealSpeedupsRiseWithDegree)
{
    // Paper, Fig. 10a: bodytrack's speedup (13.3% at degree 0) and
    // canneal's (28.6% at degree 0) grow with the degree.
    const DegreeTable speedup = readTable("fig10a_speedup.csv");
    for (const char *bench : {"bodytrack", "canneal"}) {
        SCOPED_TRACE(bench);
        EXPECT_TRUE(speedupNeverFalls(speedup, bench));
        EXPECT_FALSE(speedupNeverFalls(speedup.reversed(bench), bench));
    }
}

TEST(PaperClaims, AverageEnergyNegativeAtZeroAndHighestAtSixteen)
{
    // Paper, Fig. 10b: slightly negative savings at degree 0 (the
    // approximator costs energy and saves no fetch), then 7.2% at
    // degree 4 and 12.6% at 16.
    const DegreeTable energy = readTable("fig10b_energy.csv");
    EXPECT_TRUE(averageEnergyNegativeThenBestAtSixteen(energy));
    EXPECT_FALSE(
        averageEnergyNegativeThenBestAtSixteen(energy.reversed("average")));
}

TEST(PaperClaims, BodytrackSavesMostEnergyAtSixteen)
{
    // Paper, Fig. 10b: the largest saving of any benchmark is
    // bodytrack's, 44.1%.
    const DegreeTable energy = readTable("fig10b_energy.csv");
    EXPECT_TRUE(bodytrackSavesMostAtSixteen(energy));
    EXPECT_FALSE(bodytrackSavesMostAtSixteen(energy.reversed("bodytrack")));
}

} // namespace
} // namespace lva
