#include "logic/sop_parser.hpp"

#include <cctype>

#include "util/error.hpp"

namespace mcx {

namespace {

struct Token {
  std::size_t var;   // 0-based
  bool negated;
};

struct ParsedProduct {
  std::vector<Token> literals;
};

}  // namespace

Cover parseSop(const std::string& text, std::size_t nin) {
  std::vector<ParsedProduct> products(1);
  std::size_t maxVar = 0;

  std::size_t i = 0;
  auto skipWs = [&] {
    while (i < text.size() && (std::isspace(static_cast<unsigned char>(text[i])) || text[i] == '*'))
      ++i;
  };
  skipWs();
  bool sawAny = false;
  while (i < text.size()) {
    const char ch = text[i];
    if (ch == '+') {
      if (products.back().literals.empty()) throw ParseError("parseSop: empty product before '+'");
      products.emplace_back();
      ++i;
      skipWs();
      continue;
    }
    bool neg = false;
    if (ch == '!' || ch == '~') {
      neg = true;
      ++i;
      skipWs();
    }
    if (i >= text.size() || (text[i] != 'x' && text[i] != 'X'))
      throw ParseError("parseSop: expected variable at position " + std::to_string(i));
    ++i;
    std::size_t start = i;
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
    if (start == i) throw ParseError("parseSop: variable needs an index");
    const std::size_t idx = std::stoul(text.substr(start, i - start));
    if (idx == 0) throw ParseError("parseSop: variables are 1-based");
    if (i < text.size() && text[i] == '\'') {
      neg = !neg;
      ++i;
    }
    products.back().literals.push_back({idx - 1, neg});
    maxVar = std::max(maxVar, idx);
    sawAny = true;
    skipWs();
  }
  if (!sawAny) throw ParseError("parseSop: empty expression");
  if (products.back().literals.empty()) throw ParseError("parseSop: trailing '+'");

  if (nin == 0) nin = maxVar;
  MCX_REQUIRE(maxVar <= nin, "parseSop: variable index exceeds declared arity");

  Cover cover(nin, 1);
  for (const ParsedProduct& p : products) {
    Cube c(nin, 1);
    for (const Token& t : p.literals) {
      const Lit existing = c.lit(t.var);
      const Lit wanted = t.negated ? Lit::Neg : Lit::Pos;
      if (existing != Lit::DontCare && existing != wanted)
        throw ParseError("parseSop: contradictory literals for x" + std::to_string(t.var + 1));
      c.setLit(t.var, wanted);
    }
    c.setOut(0);
    cover.add(std::move(c));
  }
  return cover;
}

}  // namespace mcx
