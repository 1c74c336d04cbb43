/**
 * @file
 * The committed results/ files, parsed instead of trusted: every CSV
 * has a header row and rows of the header's arity, every PGM is
 * exactly its header plus width x height pixel bytes, and every other
 * file is JSON that parses. A tool that treats the binary images as
 * text (dropping or re-encoding bytes >= 128) shortens the PGMs, and
 * this catches it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/checkpoint.hh"

namespace lva {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The committed results files with extension @p ext, sorted. */
std::vector<fs::path>
resultsFiles(const std::string &ext)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(LVA_COMMITTED_RESULTS))
        if (entry.is_regular_file() && entry.path().extension() == ext)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * The fields of one CSV line as Table::writeCsv quotes them; -1 if a
 * quoted field is not closed on the line.
 */
int
csvFields(const std::string &line)
{
    int fields = 1;
    bool quoted = false;
    for (char ch : line) {
        if (ch == '"')
            quoted = !quoted; // "" inside a field toggles twice
        else if (ch == ',' && !quoted)
            ++fields;
    }
    return quoted ? -1 : fields;
}

TEST(CommittedResults, CsvRowsHaveTheHeaderArity)
{
    const std::vector<fs::path> csvs = resultsFiles(".csv");
    ASSERT_FALSE(csvs.empty());
    for (const fs::path &csv : csvs) {
        SCOPED_TRACE(csv.filename().string());
        std::istringstream in(slurp(csv));
        std::string line;
        ASSERT_TRUE(std::getline(in, line)) << "no header row";
        const int arity = csvFields(line);
        ASSERT_GE(arity, 2) << "header: " << line;
        int rows = 0;
        while (std::getline(in, line)) {
            ++rows;
            EXPECT_EQ(csvFields(line), arity) << "row " << rows << ": "
                                              << line;
        }
        EXPECT_GT(rows, 0);
    }
}

/** Skip PGM header whitespace and '#' comments from @p pos. */
void
skipSpace(const std::string &s, std::size_t &pos)
{
    while (pos < s.size()) {
        if (s[pos] == '#') {
            while (pos < s.size() && s[pos] != '\n')
                ++pos;
        } else if (std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        } else {
            return;
        }
    }
}

/** The decimal number at @p pos (after whitespace); 0 if none. */
std::size_t
pgmNumber(const std::string &s, std::size_t &pos)
{
    skipSpace(s, pos);
    std::size_t v = 0;
    while (pos < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[pos])))
        v = v * 10 + static_cast<std::size_t>(s[pos++] - '0');
    return v;
}

TEST(CommittedResults, PgmIsItsHeaderPlusOneBytePerPixel)
{
    const std::vector<fs::path> pgms = resultsFiles(".pgm");
    ASSERT_FALSE(pgms.empty());
    for (const fs::path &pgm : pgms) {
        SCOPED_TRACE(pgm.filename().string());
        const std::string bytes = slurp(pgm);
        ASSERT_EQ(bytes.compare(0, 2, "P5"), 0) << "not a binary PGM";
        std::size_t pos = 2;
        const std::size_t width = pgmNumber(bytes, pos);
        const std::size_t height = pgmNumber(bytes, pos);
        const std::size_t maxval = pgmNumber(bytes, pos);
        ASSERT_GT(width, 0u);
        ASSERT_GT(height, 0u);
        ASSERT_GT(maxval, 0u);
        ASSERT_LT(maxval, 256u) << "two-byte pixels";
        ++pos; // the single whitespace byte before the raster
        EXPECT_EQ(bytes.size(), pos + width * height)
            << width << "x" << height << " image";
    }
}

TEST(CommittedResults, EveryOtherFileIsJsonThatParses)
{
    for (const auto &entry : fs::directory_iterator(LVA_COMMITTED_RESULTS)) {
        const fs::path &p = entry.path();
        if (!entry.is_regular_file() || p.extension() == ".csv" ||
            p.extension() == ".pgm")
            continue;
        SCOPED_TRACE(p.filename().string());
        ASSERT_EQ(p.extension(), ".json") << "a results file with no check";
        EXPECT_NO_THROW(parseJson(slurp(p)));
    }
}

} // namespace
} // namespace lva
