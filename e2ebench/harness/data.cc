#include "harness/data.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace e2e {

namespace {

const std::vector<std::string> kCuisines = {
    "thai", "italian", "mexican", "indian", "french",
    "greek", "korean", "spanish", "turkish", "ethiopian"};
const std::vector<std::string> kSectors = {"tech",   "energy", "health",
                                           "retail", "bank",   "industry",
                                           "utility", "media"};
const std::vector<std::string> kDests = {
    "maui", "kauai", "oahu", "tahiti", "bali", "crete",
    "corfu", "ibiza", "malta", "cancun", "aruba", "fiji"};
const std::vector<std::string> kModes = {"AIR",  "RAIL", "SHIP",   "TRUCK",
                                         "MAIL", "FOB",  "REG AIR"};

double LogNormal(Rng* rng, double median, double sigma, double lo, double hi) {
  return std::clamp(median * std::exp(sigma * rng->Normal()), lo, hi);
}

void AddNum(HTable* t, int col, double v) { t->num[col].push_back(v); }
void AddStr(HTable* t, int col, size_t code) {
  t->code[col].push_back(static_cast<uint16_t>(code));
}

void GenRecipes(HTable* t, size_t n, Rng* rng) {
  for (size_t i = 0; i < n; ++i) {
    const double calories = Round2(LogNormal(rng, 520, 0.45, 120, 1400));
    const double protein_share = rng->Uniform(0.05, 0.35);
    AddNum(t, 0, static_cast<double>(t->rows));
    AddStr(t, 1, rng->Index(t->vocab[1].size()));
    AddStr(t, 2, rng->Index(kCuisines.size()));
    AddStr(t, 3, rng->Unit() < 0.4 ? 0 : 1);
    AddNum(t, 4, calories);
    AddNum(t, 5, Round2(calories * protein_share / 4.0));
    AddNum(t, 6, Round2(calories * rng->Uniform(0.1, 0.45) / 9.0));
    AddNum(t, 7, Round2(calories * rng->Uniform(0.2, 0.6) / 4.0));
    AddNum(t, 8, Round2(LogNormal(rng, 6.5, 0.5, 1.0, 40.0)));
    AddNum(t, 9, Round2(rng->Uniform(1.0, 5.0)));
    ++t->rows;
  }
}

void GenStocks(HTable* t, size_t n, Rng* rng) {
  for (size_t i = 0; i < n; ++i) {
    const size_t sector = rng->Index(kSectors.size());
    const bool tech = sector == 0;
    const bool short_term = rng->Unit() < 0.35;
    const double price = Round2(LogNormal(rng, 2200, 0.8, 200, 20000));
    const double risk = Round2(rng->Uniform(0.05, tech ? 0.6 : 0.45));
    const double annual =
        std::clamp(0.04 + 0.25 * risk + 0.03 * rng->Normal(), -0.05, 0.35);
    AddNum(t, 0, static_cast<double>(t->rows));
    AddStr(t, 1, sector);
    AddStr(t, 2, short_term ? 0 : 1);
    AddNum(t, 3, price);
    AddNum(t, 4, Round2(price * annual));
    AddNum(t, 5, risk);
    AddNum(t, 6, tech ? 1 : 0);
    AddNum(t, 7, short_term ? 1 : 0);
    AddNum(t, 8, short_term ? 0 : 1);
    AddNum(t, 9, tech ? price : 0.0);
    ++t->rows;
  }
}

void GenTravel(HTable* t, size_t n, Rng* rng) {
  for (size_t i = 0; i < n; ++i) {
    const double u = rng->Unit();
    const int kind = u < 0.5 ? 0 : (u < 0.8 ? 1 : 2);  // flight, hotel, car
    const double price =
        kind == 0 ? LogNormal(rng, 420, 0.4, 80, 2500)
                  : (kind == 1 ? LogNormal(rng, 900, 0.5, 150, 5000)
                               : LogNormal(rng, 260, 0.4, 60, 1500));
    AddNum(t, 0, static_cast<double>(t->rows));
    AddStr(t, 1, static_cast<size_t>(kind));
    AddStr(t, 2, rng->Index(kDests.size()));
    AddNum(t, 3, Round2(price));
    AddNum(t, 4, kind == 0 ? 1 : 0);
    AddNum(t, 5, kind == 1 ? 1 : 0);
    AddNum(t, 6, kind == 2 ? 1 : 0);
    AddNum(t, 7, kind == 1 ? Round2(rng->Uniform(0.0, 6.0)) : 0.0);
    AddNum(t, 8, Round2(rng->Uniform(1.0, 10.0) + price / 500.0));
    ++t->rows;
  }
}

void GenLineitem(HTable* t, size_t n, Rng* rng) {
  for (size_t i = 0; i < n; ++i) {
    const double quantity = static_cast<double>(rng->Int(1, 50));
    const double unit = LogNormal(rng, 1200, 0.6, 100, 20000);
    const double extended = Round2(quantity * unit / 50.0);
    const double discount = Round2(static_cast<double>(rng->Int(0, 10)) / 100.0);
    AddNum(t, 0, static_cast<double>(t->rows));
    AddNum(t, 1, static_cast<double>(rng->Int(1, 200000)));
    AddNum(t, 2, quantity);
    AddNum(t, 3, extended);
    AddNum(t, 4, discount);
    AddNum(t, 5, Round2(static_cast<double>(rng->Int(0, 8)) / 100.0));
    AddNum(t, 6, Round2(extended * (1.0 - discount)));
    AddStr(t, 7, rng->Index(kModes.size()));
    AddStr(t, 8, rng->Index(3));
    ++t->rows;
  }
}

std::vector<std::string> RecipeNames() {
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) names.push_back("dish" + std::to_string(i));
  return names;
}

}  // namespace

HTable::HTable(std::string table_name, std::vector<ColumnDef> columns,
               std::vector<std::vector<std::string>> vocabularies)
    : name(table_name),
      kind(std::move(table_name)),
      cols(std::move(columns)),
      num(cols.size()),
      code(cols.size()),
      vocab(std::move(vocabularies)) {
  vocab.resize(cols.size());
}

int HTable::Col(const std::string& column) const {
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].name == column) return static_cast<int>(c);
  }
  std::fprintf(stderr, "e2ebench: table %s has no column %s\n", name.c_str(),
               column.c_str());
  std::abort();
}

uint16_t HTable::Code(int col, const std::string& value) const {
  const auto& v = vocab[col];
  auto it = std::find(v.begin(), v.end(), value);
  if (it == v.end()) {
    std::fprintf(stderr, "e2ebench: %s.%s has no value '%s'\n", name.c_str(),
                 cols[col].name.c_str(), value.c_str());
    std::abort();
  }
  return static_cast<uint16_t>(it - v.begin());
}

HTable NewRecipes() {
  return HTable("recipes",
                {{"id", ColType::kInt},
                 {"name", ColType::kString},
                 {"cuisine", ColType::kString},
                 {"gluten", ColType::kString},
                 {"calories", ColType::kDouble},
                 {"protein", ColType::kDouble},
                 {"fat", ColType::kDouble},
                 {"carbs", ColType::kDouble},
                 {"cost", ColType::kDouble},
                 {"rating", ColType::kDouble}},
                {{}, RecipeNames(), kCuisines, {"free", "contains"}});
}

HTable NewStocks() {
  return HTable("stocks",
                {{"id", ColType::kInt},
                 {"sector", ColType::kString},
                 {"term", ColType::kString},
                 {"price", ColType::kDouble},
                 {"expected_gain", ColType::kDouble},
                 {"risk", ColType::kDouble},
                 {"is_tech", ColType::kInt},
                 {"is_short", ColType::kInt},
                 {"is_long", ColType::kInt},
                 {"tech_value", ColType::kDouble}},
                {{}, kSectors, {"short", "long"}});
}

HTable NewTravel() {
  return HTable("travel_items",
                {{"id", ColType::kInt},
                 {"kind", ColType::kString},
                 {"dest", ColType::kString},
                 {"price", ColType::kDouble},
                 {"is_flight", ColType::kInt},
                 {"is_hotel", ColType::kInt},
                 {"is_car", ColType::kInt},
                 {"beach_km", ColType::kDouble},
                 {"comfort", ColType::kDouble}},
                {{}, {"flight", "hotel", "car"}, kDests});
}

HTable NewLineitem() {
  return HTable("lineitem",
                {{"id", ColType::kInt},
                 {"partkey", ColType::kInt},
                 {"quantity", ColType::kDouble},
                 {"extendedprice", ColType::kDouble},
                 {"discount", ColType::kDouble},
                 {"tax", ColType::kDouble},
                 {"revenue", ColType::kDouble},
                 {"shipmode", ColType::kString},
                 {"returnflag", ColType::kString}},
                {{}, {}, {}, {}, {}, {}, {}, kModes, {"A", "N", "R"}});
}

void GenerateRows(HTable* t, size_t n, Rng* rng) {
  if (t->kind == "recipes") {
    GenRecipes(t, n, rng);
  } else if (t->kind == "stocks") {
    GenStocks(t, n, rng);
  } else if (t->kind == "travel_items") {
    GenTravel(t, n, rng);
  } else {
    GenLineitem(t, n, rng);
  }
}

pb::db::Table ToDbTable(const HTable& t, size_t begin, size_t end) {
  pb::db::Schema schema;
  for (const ColumnDef& c : t.cols) {
    const pb::db::ValueType type =
        c.type == ColType::kInt
            ? pb::db::ValueType::kInt
            : (c.type == ColType::kDouble ? pb::db::ValueType::kDouble
                                          : pb::db::ValueType::kString);
    (void)schema.AddColumn({c.name, type});
  }
  pb::db::Table table(t.name, std::move(schema));
  table.Reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    pb::db::RowAppender row = table.StartRow();
    for (size_t c = 0; c < t.cols.size(); ++c) {
      switch (t.cols[c].type) {
        case ColType::kInt:
          row.Int(static_cast<int64_t>(t.num[c][r]));
          break;
        case ColType::kDouble:
          row.Double(t.num[c][r]);
          break;
        case ColType::kString:
          row.String(t.vocab[c][t.code[c][r]]);
          break;
      }
    }
    row.Finish();
  }
  return table;
}

std::vector<pb::db::Tuple> ToTuples(const HTable& t, size_t begin,
                                    size_t end) {
  std::vector<pb::db::Tuple> out;
  out.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    pb::db::Tuple tuple;
    tuple.reserve(t.cols.size());
    for (size_t c = 0; c < t.cols.size(); ++c) {
      switch (t.cols[c].type) {
        case ColType::kInt:
          tuple.push_back(
              pb::db::Value::Int(static_cast<int64_t>(t.num[c][r])));
          break;
        case ColType::kDouble:
          tuple.push_back(pb::db::Value::Double(t.num[c][r]));
          break;
        case ColType::kString:
          tuple.push_back(pb::db::Value::String(t.vocab[c][t.code[c][r]]));
          break;
      }
    }
    out.push_back(std::move(tuple));
  }
  return out;
}

namespace {

/// One cell as CSV/JSON text: integers bare, doubles with two decimals
/// (always a '.', so CSV type inference reads DOUBLE), strings raw.
std::string CellText(const HTable& t, size_t c, size_t r) {
  char buf[64];
  switch (t.cols[c].type) {
    case ColType::kInt:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(t.num[c][r]));
      return buf;
    case ColType::kDouble:
      std::snprintf(buf, sizeof(buf), "%.2f", t.num[c][r]);
      return buf;
    case ColType::kString:
      break;
  }
  return t.vocab[c][t.code[c][r]];
}

}  // namespace

std::string ToJsonRows(const HTable& t, size_t begin, size_t end) {
  std::string out = "[";
  for (size_t r = begin; r < end; ++r) {
    if (r > begin) out += ',';
    out += '[';
    for (size_t c = 0; c < t.cols.size(); ++c) {
      if (c > 0) out += ',';
      if (t.cols[c].type == ColType::kString) {
        out += '"' + CellText(t, c, r) + '"';
      } else {
        out += CellText(t, c, r);
      }
    }
    out += ']';
  }
  out += ']';
  return out;
}

bool WriteCsv(const HTable& t, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t c = 0; c < t.cols.size(); ++c) {
    std::fprintf(f, "%s%s", c ? "," : "", t.cols[c].name.c_str());
  }
  std::fputc('\n', f);
  for (size_t r = 0; r < t.rows; ++r) {
    for (size_t c = 0; c < t.cols.size(); ++c) {
      std::fprintf(f, "%s%s", c ? "," : "", CellText(t, c, r).c_str());
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
