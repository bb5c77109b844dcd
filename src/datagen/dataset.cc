#include "datagen/dataset.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/words.h"

namespace her {

namespace {

/// Canonical (pre-noise) state of the entity world.
struct BrandWorld {
  std::string key;
  std::string name;
  std::string country;
  std::string manufacturer;
  std::string factory;   // factory site name
  std::string city;      // made_in city
  std::string code;      // country code
  std::string made_in;   // relational rendering: "city, CODE"
};

struct EntityWorld {
  std::string key;
  std::string name;
  std::string material;
  std::string color;
  std::string trim;  // secondary color (trim/accent)
  std::string type_code;
  std::string qty;
  int brand = 0;
  int category = 0;
  int family = 0;  // product line; variants differ in color/type only
  bool has_tuple = false;
  bool has_vertex = false;
};

constexpr const char* kColors[8] = {"white", "red",    "blue",  "black",
                                    "green", "yellow", "brown", "grey"};

std::string TypeCode(Rng& rng) {
  std::string s;
  s += static_cast<char>('A' + rng.Below(26));
  s += static_cast<char>('A' + rng.Below(26));
  for (int i = 0; i < 3; ++i) s += static_cast<char>('0' + rng.Below(10));
  return s;
}

/// Applies the profile's graph-side noise to a canonical value.
std::string NoisyValue(const std::string& value, const NoiseProfile& noise,
                       Rng& rng) {
  std::string out = value;
  if (rng.Chance(noise.value_variant_prob)) {
    switch (rng.Below(3)) {
      case 0:
        out = ValueNoise::Abbreviate(out);
        break;
      case 1:
        out = ValueNoise::Reorder(out);
        break;
      default:
        out = ValueNoise::Extend(out, rng);
        break;
    }
  }
  if (rng.Chance(noise.typo_prob)) {
    out = ValueNoise::Typos(out, noise.typo_count, rng);
  }
  return out;
}

/// Renames graph predicates to opaque codes when the spec asks for it.
class PredicateNamer {
 public:
  explicit PredicateNamer(bool opaque) : opaque_(opaque) {}

  std::string operator()(const std::string& name) {
    if (!opaque_) return name;
    auto it = map_.find(name);
    if (it == map_.end()) {
      it = map_.emplace(name,
                        std::string("r").append(std::to_string(map_.size())))
               .first;
    }
    return it->second;
  }

 private:
  bool opaque_;
  std::unordered_map<std::string, std::string> map_;
};

/// The static path-pair supervision block shared by both generators (the
/// predicate namer resolves graph-side names, so opaque mode works too).
void AppendPathPairs(PredicateNamer& pred,
                     std::vector<PathPairExample>* out) {
  const std::vector<std::pair<std::vector<std::string>,
                              std::vector<std::string>>>
      kAligned = {
          {{"name"}, {"names"}},
          {{"material"}, {"soleMadeBy"}},
          {{"color"}, {"hasColor"}},
          {{"trim"}, {"trimColor"}},
          {{"type"}, {"typeNo"}},
          {{"category"}, {"isA"}},
          {{"qty"}, {"quantity"}},
          {{"brand"}, {"brandName"}},
          // Single-edge pairs seen when ParaMatch recurses to brand level.
          {{"name"}, {"type"}},
          {{"country"}, {"brandCountry"}},
          {{"manufacturer"}, {"belongsTo"}},
          {{"made_in"}, {"factorySite", "isIn"}},
          {{"made_in"}, {"factorySite", "isIn", "isIn"}},
          {{"brand", "name"}, {"brandName", "type"}},
          {{"brand", "country"}, {"brandName", "brandCountry"}},
          {{"brand", "manufacturer"}, {"brandName", "belongsTo"}},
          {{"brand", "made_in"}, {"brandName", "factorySite", "isIn"}},
          {{"brand", "made_in"},
           {"brandName", "factorySite", "isIn", "isIn"}},
      };
  auto map_gp = [&pred](const std::vector<std::string>& gp) {
    std::vector<std::string> mapped;
    mapped.reserve(gp.size());
    for (const auto& name : gp) mapped.push_back(pred(name));
    return mapped;
  };
  for (const auto& [rel, gp] : kAligned) {
    out->push_back({rel, map_gp(gp), true});
  }
  // Negatives: every misaligned combination (the trainer rebalances).
  for (size_t a = 0; a < kAligned.size(); ++a) {
    for (size_t b = 0; b < kAligned.size(); ++b) {
      if (a == b) continue;
      // Same rel path appearing in several aligned rows (brand/made_in
      // prefixes) must not be negated against its own aliases.
      if (kAligned[a].first == kAligned[b].first) continue;
      out->push_back({kAligned[a].first, map_gp(kAligned[b].second), false});
    }
  }
}

GeneratedDataset GenerateParallel(const DatasetSpec& spec);

}  // namespace

GeneratedDataset Generate(const DatasetSpec& spec) {
  HER_CHECK(spec.num_entities > 0 && spec.num_brands > 0 &&
            spec.num_categories > 0);
  if (spec.gen_threads > 0) return GenerateParallel(spec);
  Rng rng(spec.seed);
  GeneratedDataset out;
  out.name = spec.name;

  // --- Canonical world -----------------------------------------------------
  std::vector<std::string> materials;
  for (int i = 0; i < 10; ++i) materials.push_back(WordMaker::Word(rng));
  std::vector<std::string> categories;
  for (int i = 0; i < spec.num_categories; ++i) {
    categories.push_back(WordMaker::Phrase(rng, 2));
  }

  std::vector<BrandWorld> brands(spec.num_brands);
  for (int i = 0; i < spec.num_brands; ++i) {
    BrandWorld& b = brands[i];
    b.key = "b" + std::to_string(i);
    b.name = WordMaker::Phrase(rng, 1 + static_cast<int>(rng.Below(2)));
    b.country = WordMaker::Name(rng);
    b.manufacturer = WordMaker::Name(rng) + " AG";
    b.factory = WordMaker::Name(rng) + " Factory";
    b.city = WordMaker::Name(rng);
    b.code = std::string(1, static_cast<char>('A' + rng.Below(26))) +
             std::string(1, static_cast<char>('A' + rng.Below(26)));
    b.made_in = b.city + ", " + b.code;
  }

  const int total_entities = spec.num_entities +
                             static_cast<int>(spec.num_entities *
                                              spec.distractor_ratio);
  // Entities come in product-line families: variants share the name stem,
  // brand, category and material and differ only in the variant word,
  // color, type code and qty (Table I's "Dame Basketball Shoes D7" world).
  // Near-duplicates are what makes heterogeneous ER hard: telling variants
  // apart requires matching the discriminative properties through the
  // right paths, not just overlapping bags of values.
  struct Family {
    std::string stem;
    std::string material;
    int brand;
    int category;
  };
  std::vector<Family> families;
  std::vector<EntityWorld> entities(total_entities);
  for (int i = 0; i < total_entities; ++i) {
    EntityWorld& e = entities[i];
    // Start a new family or extend the last one (expected size ~2.5).
    if (families.empty() || !rng.Chance(0.6)) {
      families.push_back(Family{
          WordMaker::Phrase(rng, 2 + static_cast<int>(rng.Below(2))),
          materials[rng.Below(materials.size())],
          static_cast<int>(rng.Below(static_cast<uint64_t>(spec.num_brands))),
          static_cast<int>(
              rng.Below(static_cast<uint64_t>(spec.num_categories)))});
    }
    const Family& fam = families.back();
    const bool extends = (i > 0 && entities[i - 1].family ==
                                       static_cast<int>(families.size()) - 1);
    e.family = static_cast<int>(families.size()) - 1;
    e.key = "t" + std::to_string(i);
    e.name = fam.stem + " " + TypeCode(rng).substr(0, 2) +
             std::to_string(rng.Below(10));
    e.material = fam.material;
    if (extends && rng.Chance(0.5)) {
      // Variant with SWAPPED color/trim: the value bags of the two
      // variants are identical; only the value-to-property association
      // tells them apart — exactly what path-aware matching checks and
      // bag-of-values matchers cannot.
      e.color = entities[i - 1].trim;
      e.trim = entities[i - 1].color;
    } else {
      e.color = kColors[rng.Below(8)];
      e.trim = kColors[rng.Below(8)];
    }
    e.type_code = TypeCode(rng);
    e.qty = std::to_string(10 + rng.Below(990));
    e.brand = fam.brand;
    e.category = fam.category;
    if (i < spec.num_entities) {
      e.has_tuple = true;
      e.has_vertex = !rng.Chance(spec.unmatched_tuple_ratio);
    } else {
      e.has_vertex = true;  // graph-only distractor
    }
  }

  // --- Relational view -----------------------------------------------------
  HER_CHECK(out.db
                .AddRelation(RelationSchema("brand",
                                            {{"name", false, ""},
                                             {"country", false, ""},
                                             {"manufacturer", false, ""},
                                             {"made_in", false, ""}}))
                .ok());
  HER_CHECK(out.db
                .AddRelation(RelationSchema("item",
                                            {{"name", false, ""},
                                             {"material", false, ""},
                                             {"color", false, ""},
                                             {"trim", false, ""},
                                             {"type", false, ""},
                                             {"category", false, ""},
                                             {"qty", false, ""},
                                             {"brand", true, "brand"}}))
                .ok());
  for (const BrandWorld& b : brands) {
    HER_CHECK(out.db
                  .Insert("brand", {b.key,
                                    {b.name, b.country, b.manufacturer,
                                     b.made_in}})
                  .ok());
  }
  for (const EntityWorld& e : entities) {
    if (!e.has_tuple) continue;
    HER_CHECK(out.db
                  .Insert("item", {e.key,
                                   {e.name, e.material, e.color, e.trim,
                                    e.type_code, categories[e.category],
                                    e.qty, brands[e.brand].key}})
                  .ok());
  }
  auto canonical = Rdb2Rdf(out.db);
  HER_CHECK(canonical.ok());
  out.canonical = std::move(canonical).value();

  // --- Graph view ----------------------------------------------------------
  const NoiseProfile& noise = spec.noise;
  PredicateNamer pred(spec.opaque_predicates);
  GraphBuilder gb;
  // Shared category vertices (high-degree hubs, like v2 in Fig. 1).
  std::vector<VertexId> category_vs;
  for (const std::string& c : categories) {
    category_vs.push_back(gb.AddVertex(c));
  }
  // Brand entities with path-encoded made_in (factorySite, isIn[, isIn]).
  std::vector<VertexId> brand_vs;
  for (const BrandWorld& b : brands) {
    const VertexId bv = gb.AddVertex("brand");
    brand_vs.push_back(bv);
    gb.AddEdge(bv, gb.AddVertex(NoisyValue(b.name, noise, rng)), pred("type"));
    gb.AddEdge(bv, gb.AddVertex(NoisyValue(b.country, noise, rng)),
               pred("brandCountry"));
    gb.AddEdge(bv, gb.AddVertex(NoisyValue(b.manufacturer, noise, rng)),
               pred("belongsTo"));
    const VertexId site = gb.AddVertex(NoisyValue(b.factory, noise, rng));
    gb.AddEdge(bv, site, pred("factorySite"));
    if (rng.Chance(noise.deep_path_prob)) {
      const VertexId city = gb.AddVertex(NoisyValue(b.city, noise, rng));
      gb.AddEdge(site, city, pred("isIn"));
      gb.AddEdge(city, gb.AddVertex(b.code), pred("isIn"));
    } else {
      gb.AddEdge(site, gb.AddVertex(NoisyValue(b.made_in, noise, rng)),
                 pred("isIn"));
    }
  }
  // Item entities.
  std::vector<VertexId> entity_vs(total_entities, kInvalidVertex);
  for (int i = 0; i < total_entities; ++i) {
    const EntityWorld& e = entities[i];
    if (!e.has_vertex) continue;
    const VertexId iv = gb.AddVertex("item");
    entity_vs[i] = iv;
    if (!rng.Chance(noise.drop_attr_prob)) {
      gb.AddEdge(iv, gb.AddVertex(NoisyValue(e.name, noise, rng)), pred("names"));
    }
    if (!rng.Chance(noise.drop_attr_prob)) {
      gb.AddEdge(iv, gb.AddVertex(NoisyValue(e.material, noise, rng)),
                 pred("soleMadeBy"));
    }
    if (!rng.Chance(noise.drop_attr_prob)) {
      gb.AddEdge(iv, gb.AddVertex(NoisyValue(e.color, noise, rng)),
                 pred("hasColor"));
    }
    if (!rng.Chance(noise.drop_attr_prob)) {
      gb.AddEdge(iv, gb.AddVertex(NoisyValue(e.trim, noise, rng)),
                 pred("trimColor"));
    }
    if (!rng.Chance(noise.drop_attr_prob)) {
      gb.AddEdge(iv, gb.AddVertex(NoisyValue(e.type_code, noise, rng)),
                 pred("typeNo"));
    }
    gb.AddEdge(iv, category_vs[e.category], pred("isA"));
    gb.AddEdge(iv, brand_vs[e.brand], pred("brandName"));
    // qty is usually absent from knowledge graphs; keep it rarely.
    if (rng.Chance(0.15)) {
      gb.AddEdge(iv, gb.AddVertex(e.qty), pred("quantity"));
    }
    if (rng.Chance(noise.extra_attr_prob)) {
      gb.AddEdge(iv, gb.AddVertex(WordMaker::Phrase(rng, 1)),
                 WordMaker::Word(rng));
    }
  }
  out.g = std::move(gb).Build();

  // --- Ground truth and annotations ---------------------------------------
  const uint32_t item_rel = out.db.FindRelation("item").value();
  std::vector<std::pair<VertexId, VertexId>> positives;  // (u_t, v)
  {
    uint32_t row = 0;
    for (int i = 0; i < total_entities; ++i) {
      const EntityWorld& e = entities[i];
      if (!e.has_tuple) continue;
      const TupleRef t{item_rel, row++};
      if (e.has_vertex) {
        out.true_matches.emplace_back(t, entity_vs[i]);
        positives.emplace_back(out.canonical.VertexOf(t), entity_vs[i]);
      }
    }
  }

  // Balanced annotations: positives + hard negatives (half share a brand).
  std::vector<std::pair<VertexId, VertexId>> pos_pool = positives;
  rng.Shuffle(pos_pool);
  const size_t n_pos = std::min<size_t>(
      pos_pool.size(), static_cast<size_t>(spec.annotations_per_class));
  for (size_t i = 0; i < n_pos; ++i) {
    out.annotations.push_back({pos_pool[i].first, pos_pool[i].second, true});
  }
  // Hard negatives: half the attempts draw a same-family variant pair
  // (near-duplicates); the rest are random, as in the paper's sampling.
  std::unordered_map<int, std::vector<int>> family_members;
  for (int i = 0; i < total_entities; ++i) {
    family_members[entities[i].family].push_back(i);
  }
  std::unordered_set<uint64_t> used_negatives;
  size_t guard = 0;
  while (out.annotations.size() < 2 * n_pos && guard++ < 100 * n_pos) {
    int i = static_cast<int>(rng.Below(total_entities));
    int j;
    if (rng.Chance(0.5)) {
      const auto& members = family_members[entities[i].family];
      j = members[rng.Below(members.size())];
    } else {
      j = static_cast<int>(rng.Below(total_entities));
    }
    if (i == j) continue;
    const EntityWorld& ei = entities[i];
    const EntityWorld& ej = entities[j];
    if (!ei.has_tuple || !ej.has_vertex) continue;
    const auto row = out.db.relation(item_rel).FindByKey(ei.key);
    if (!row) continue;
    const VertexId u = out.canonical.VertexOf(TupleRef{item_rel, *row});
    const VertexId v = entity_vs[j];
    const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
    if (!used_negatives.insert(key).second) continue;
    out.annotations.push_back({u, v, false});
  }
  rng.Shuffle(out.annotations);

  // --- Path-pair supervision for M_rho -------------------------------------
  AppendPathPairs(pred, &out.path_pairs);
  return out;
}

namespace {

// --- scaling generator ---------------------------------------------------
//
// Linear-time, thread-parallel rendition of the same entity world. Every
// random decision draws from Rng(Mix64(seed ^ salt [^ index])) — a
// private stream per entity/family/brand — so the output is a pure
// function of the seed, identical for every gen_threads value. The only
// serial work is integer bookkeeping (family boundaries, color chains)
// and the final assembly into Database/GraphBuilder; the string rendering
// (names, noise, typos), which dominates, fans out over the threads.

constexpr uint64_t kWorldSalt = 0x9d39247e33776d41ULL;
constexpr uint64_t kSkelSalt = 0x2af7398005aaa5c7ULL;
constexpr uint64_t kFamilySalt = 0x44db015024904457ULL;
constexpr uint64_t kBrandSalt = 0x9c15f73e62a76ae2ULL;
constexpr uint64_t kItemSalt = 0x75834ddeb45cc766ULL;
constexpr uint64_t kAnnoSalt = 0x3290ac3a203001bfULL;

/// One brand's canonical fields plus its pre-noised graph rendering.
struct RenderedBrand {
  BrandWorld canon;
  std::string g_name;
  std::string g_country;
  std::string g_manufacturer;
  std::string g_factory;
  bool deep_path = false;
  std::string g_city;     // deep_path only
  std::string g_code;     // deep_path only
  std::string g_made_in;  // !deep_path only
};

/// One item's canonical fields plus its pre-noised graph rendering; empty
/// g_* string = attribute dropped by noise.
struct RenderedItem {
  std::string key;
  std::string name;
  std::string material;
  std::string color;
  std::string trim;
  std::string type_code;
  std::string qty;
  std::string g_name;
  std::string g_material;
  std::string g_color;
  std::string g_trim;
  std::string g_type;
  bool keep_qty = false;
  std::string extra_value;  // with extra_pred: graph-only attribute edge
  std::string extra_pred;
  int brand = 0;
  int category = 0;
  int family = 0;
  bool has_tuple = false;
  bool has_vertex = false;
};

GeneratedDataset GenerateParallel(const DatasetSpec& spec) {
  const size_t threads = static_cast<size_t>(spec.gen_threads);
  const uint64_t seed = spec.seed;
  const NoiseProfile& noise = spec.noise;
  GeneratedDataset out;
  out.name = spec.name;

  // --- serial skeleton: family boundaries, color chains, flags -----------
  // Cheap integer decisions whose chain dependencies (swapped variants
  // copy the previous entity's colors) make them inherently sequential;
  // O(total) with no strings, negligible even at millions of entities.
  const int total_entities =
      spec.num_entities +
      static_cast<int>(spec.num_entities * spec.distractor_ratio);
  struct Skel {
    int family = 0;
    uint8_t color = 0;
    uint8_t trim = 0;
    bool has_tuple = false;
    bool has_vertex = false;
  };
  std::vector<Skel> skel(total_entities);
  int num_families = 0;
  for (int i = 0; i < total_entities; ++i) {
    Rng s(Mix64(seed ^ kSkelSalt ^ static_cast<uint64_t>(i)));
    const bool extends = i > 0 && s.Chance(0.6);
    if (!extends) ++num_families;
    Skel& k = skel[i];
    k.family = num_families - 1;
    if (extends && s.Chance(0.5)) {
      // Variant with swapped color/trim (see the sequential generator's
      // note: identical value bags, different value-to-property wiring).
      k.color = skel[i - 1].trim;
      k.trim = skel[i - 1].color;
    } else {
      k.color = static_cast<uint8_t>(s.Below(8));
      k.trim = static_cast<uint8_t>(s.Below(8));
    }
    if (i < spec.num_entities) {
      k.has_tuple = true;
      k.has_vertex = !s.Chance(spec.unmatched_tuple_ratio);
    } else {
      k.has_vertex = true;  // graph-only distractor
    }
  }

  // --- shared world (small, serial) --------------------------------------
  Rng world(Mix64(seed ^ kWorldSalt));
  std::vector<std::string> materials;
  for (int i = 0; i < 10; ++i) materials.push_back(WordMaker::Word(world));
  std::vector<std::string> categories;
  for (int i = 0; i < spec.num_categories; ++i) {
    categories.push_back(WordMaker::Phrase(world, 2));
  }

  // --- parallel renders ---------------------------------------------------
  struct Family {
    std::string stem;
    int material = 0;
    int brand = 0;
    int category = 0;
  };
  std::vector<Family> families(num_families);
  ParallelFor(families.size(), threads, [&](size_t f) {
    Rng r(Mix64(seed ^ kFamilySalt ^ f));
    families[f] = Family{
        WordMaker::Phrase(r, 2 + static_cast<int>(r.Below(2))),
        static_cast<int>(r.Below(materials.size())),
        static_cast<int>(r.Below(static_cast<uint64_t>(spec.num_brands))),
        static_cast<int>(
            r.Below(static_cast<uint64_t>(spec.num_categories)))};
  });

  std::vector<RenderedBrand> brands(spec.num_brands);
  ParallelFor(brands.size(), threads, [&](size_t i) {
    Rng r(Mix64(seed ^ kBrandSalt ^ i));
    RenderedBrand& b = brands[i];
    b.canon.key = "b" + std::to_string(i);
    b.canon.name = WordMaker::Phrase(r, 1 + static_cast<int>(r.Below(2)));
    b.canon.country = WordMaker::Name(r);
    b.canon.manufacturer = WordMaker::Name(r) + " AG";
    b.canon.factory = WordMaker::Name(r) + " Factory";
    b.canon.city = WordMaker::Name(r);
    b.canon.code = std::string(1, static_cast<char>('A' + r.Below(26))) +
                   std::string(1, static_cast<char>('A' + r.Below(26)));
    b.canon.made_in = b.canon.city + ", " + b.canon.code;
    b.g_name = NoisyValue(b.canon.name, noise, r);
    b.g_country = NoisyValue(b.canon.country, noise, r);
    b.g_manufacturer = NoisyValue(b.canon.manufacturer, noise, r);
    b.g_factory = NoisyValue(b.canon.factory, noise, r);
    b.deep_path = r.Chance(noise.deep_path_prob);
    if (b.deep_path) {
      b.g_city = NoisyValue(b.canon.city, noise, r);
      b.g_code = b.canon.code;
    } else {
      b.g_made_in = NoisyValue(b.canon.made_in, noise, r);
    }
  });

  std::vector<RenderedItem> items(total_entities);
  ParallelFor(items.size(), threads, [&](size_t i) {
    Rng r(Mix64(seed ^ kItemSalt ^ i));
    const Skel& k = skel[i];
    const Family& fam = families[k.family];
    RenderedItem& e = items[i];
    e.family = k.family;
    e.brand = fam.brand;
    e.category = fam.category;
    e.has_tuple = k.has_tuple;
    e.has_vertex = k.has_vertex;
    e.key = "t" + std::to_string(i);
    e.name = fam.stem + " " + TypeCode(r).substr(0, 2) +
             std::to_string(r.Below(10));
    e.material = materials[fam.material];
    e.color = kColors[k.color];
    e.trim = kColors[k.trim];
    e.type_code = TypeCode(r);
    e.qty = std::to_string(10 + r.Below(990));
    if (!e.has_vertex) return;
    if (!r.Chance(noise.drop_attr_prob)) {
      e.g_name = NoisyValue(e.name, noise, r);
    }
    if (!r.Chance(noise.drop_attr_prob)) {
      e.g_material = NoisyValue(e.material, noise, r);
    }
    if (!r.Chance(noise.drop_attr_prob)) {
      e.g_color = NoisyValue(e.color, noise, r);
    }
    if (!r.Chance(noise.drop_attr_prob)) {
      e.g_trim = NoisyValue(e.trim, noise, r);
    }
    if (!r.Chance(noise.drop_attr_prob)) {
      e.g_type = NoisyValue(e.type_code, noise, r);
    }
    e.keep_qty = r.Chance(0.15);
    if (r.Chance(noise.extra_attr_prob)) {
      e.extra_value = WordMaker::Phrase(r, 1);
      e.extra_pred = WordMaker::Word(r);
    }
  });

  // --- serial assembly: relational view -----------------------------------
  HER_CHECK(out.db
                .AddRelation(RelationSchema("brand",
                                            {{"name", false, ""},
                                             {"country", false, ""},
                                             {"manufacturer", false, ""},
                                             {"made_in", false, ""}}))
                .ok());
  HER_CHECK(out.db
                .AddRelation(RelationSchema("item",
                                            {{"name", false, ""},
                                             {"material", false, ""},
                                             {"color", false, ""},
                                             {"trim", false, ""},
                                             {"type", false, ""},
                                             {"category", false, ""},
                                             {"qty", false, ""},
                                             {"brand", true, "brand"}}))
                .ok());
  for (const RenderedBrand& b : brands) {
    HER_CHECK(out.db
                  .Insert("brand", {b.canon.key,
                                    {b.canon.name, b.canon.country,
                                     b.canon.manufacturer, b.canon.made_in}})
                  .ok());
  }
  for (const RenderedItem& e : items) {
    if (!e.has_tuple) continue;
    HER_CHECK(out.db
                  .Insert("item", {e.key,
                                   {e.name, e.material, e.color, e.trim,
                                    e.type_code, categories[e.category],
                                    e.qty, brands[e.brand].canon.key}})
                  .ok());
  }
  auto canonical = Rdb2Rdf(out.db);
  HER_CHECK(canonical.ok());
  out.canonical = std::move(canonical).value();

  // --- serial assembly: graph view ----------------------------------------
  // Pure wiring of pre-rendered strings: no RNG, linear time, with the
  // vertex/edge tables preallocated to their upper bounds.
  PredicateNamer pred(spec.opaque_predicates);
  GraphBuilder gb;
  gb.Reserve(categories.size() + brands.size() * 8 + items.size() * 8,
             brands.size() * 7 + items.size() * 9);
  std::vector<VertexId> category_vs;
  for (const std::string& c : categories) {
    category_vs.push_back(gb.AddVertex(c));
  }
  std::vector<VertexId> brand_vs;
  for (const RenderedBrand& b : brands) {
    const VertexId bv = gb.AddVertex("brand");
    brand_vs.push_back(bv);
    gb.AddEdge(bv, gb.AddVertex(b.g_name), pred("type"));
    gb.AddEdge(bv, gb.AddVertex(b.g_country), pred("brandCountry"));
    gb.AddEdge(bv, gb.AddVertex(b.g_manufacturer), pred("belongsTo"));
    const VertexId site = gb.AddVertex(b.g_factory);
    gb.AddEdge(bv, site, pred("factorySite"));
    if (b.deep_path) {
      const VertexId city = gb.AddVertex(b.g_city);
      gb.AddEdge(site, city, pred("isIn"));
      gb.AddEdge(city, gb.AddVertex(b.g_code), pred("isIn"));
    } else {
      gb.AddEdge(site, gb.AddVertex(b.g_made_in), pred("isIn"));
    }
  }
  std::vector<VertexId> entity_vs(total_entities, kInvalidVertex);
  for (int i = 0; i < total_entities; ++i) {
    const RenderedItem& e = items[i];
    if (!e.has_vertex) continue;
    const VertexId iv = gb.AddVertex("item");
    entity_vs[i] = iv;
    if (!e.g_name.empty()) {
      gb.AddEdge(iv, gb.AddVertex(e.g_name), pred("names"));
    }
    if (!e.g_material.empty()) {
      gb.AddEdge(iv, gb.AddVertex(e.g_material), pred("soleMadeBy"));
    }
    if (!e.g_color.empty()) {
      gb.AddEdge(iv, gb.AddVertex(e.g_color), pred("hasColor"));
    }
    if (!e.g_trim.empty()) {
      gb.AddEdge(iv, gb.AddVertex(e.g_trim), pred("trimColor"));
    }
    if (!e.g_type.empty()) {
      gb.AddEdge(iv, gb.AddVertex(e.g_type), pred("typeNo"));
    }
    gb.AddEdge(iv, category_vs[e.category], pred("isA"));
    gb.AddEdge(iv, brand_vs[e.brand], pred("brandName"));
    if (e.keep_qty) gb.AddEdge(iv, gb.AddVertex(e.qty), pred("quantity"));
    if (!e.extra_pred.empty()) {
      gb.AddEdge(iv, gb.AddVertex(e.extra_value), e.extra_pred);
    }
  }
  out.g = std::move(gb).Build();

  // --- ground truth and annotations ---------------------------------------
  const uint32_t item_rel = out.db.FindRelation("item").value();
  std::vector<std::pair<VertexId, VertexId>> positives;  // (u_t, v)
  {
    uint32_t row = 0;
    for (int i = 0; i < total_entities; ++i) {
      const RenderedItem& e = items[i];
      if (!e.has_tuple) continue;
      const TupleRef t{item_rel, row++};
      if (e.has_vertex) {
        out.true_matches.emplace_back(t, entity_vs[i]);
        positives.emplace_back(out.canonical.VertexOf(t), entity_vs[i]);
      }
    }
  }
  Rng arng(Mix64(seed ^ kAnnoSalt));
  std::vector<std::pair<VertexId, VertexId>> pos_pool = positives;
  arng.Shuffle(pos_pool);
  const size_t n_pos = std::min<size_t>(
      pos_pool.size(), static_cast<size_t>(spec.annotations_per_class));
  for (size_t i = 0; i < n_pos; ++i) {
    out.annotations.push_back({pos_pool[i].first, pos_pool[i].second, true});
  }
  std::unordered_map<int, std::vector<int>> family_members;
  for (int i = 0; i < total_entities; ++i) {
    family_members[items[i].family].push_back(i);
  }
  std::unordered_set<uint64_t> used_negatives;
  size_t guard = 0;
  while (out.annotations.size() < 2 * n_pos && guard++ < 100 * n_pos) {
    int i = static_cast<int>(arng.Below(total_entities));
    int j;
    if (arng.Chance(0.5)) {
      const auto& members = family_members[items[i].family];
      j = members[arng.Below(members.size())];
    } else {
      j = static_cast<int>(arng.Below(total_entities));
    }
    if (i == j) continue;
    const RenderedItem& ei = items[i];
    const RenderedItem& ej = items[j];
    if (!ei.has_tuple || !ej.has_vertex) continue;
    const auto row = out.db.relation(item_rel).FindByKey(ei.key);
    if (!row) continue;
    const VertexId u = out.canonical.VertexOf(TupleRef{item_rel, *row});
    const VertexId v = entity_vs[j];
    const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
    if (!used_negatives.insert(key).second) continue;
    out.annotations.push_back({u, v, false});
  }
  arng.Shuffle(out.annotations);

  AppendPathPairs(pred, &out.path_pairs);
  return out;
}

}  // namespace

uint64_t DatasetDigest(const GeneratedDataset& d) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  const auto mix = [&h](uint64_t x) { h = Mix64(h ^ x); };
  const auto mix_str = [&h](std::string_view s) {
    uint64_t fnv = 0xcbf29ce484222325ULL;  // FNV-1a over the bytes
    for (const char c : s) {
      fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    h = Mix64(h ^ fnv ^ (static_cast<uint64_t>(s.size()) << 1));
  };
  mix_str(d.name);
  mix(d.db.num_relations());
  for (uint32_t r = 0; r < d.db.num_relations(); ++r) {
    const Relation& rel = d.db.relation(r);
    mix_str(rel.schema().name());
    mix(rel.size());
    for (const Tuple& t : rel.tuples()) {
      mix_str(t.key);
      for (const std::string& v : t.values) mix_str(v);
    }
  }
  mix(d.g.num_vertices());
  for (VertexId v = 0; v < d.g.num_vertices(); ++v) {
    mix_str(d.g.label(v));
    for (const Edge& e : d.g.OutEdges(v)) {
      mix(e.dst);
      mix_str(d.g.EdgeLabelName(e.label));
    }
  }
  mix(d.true_matches.size());
  for (const auto& [t, v] : d.true_matches) {
    mix(t.relation);
    mix(t.row);
    mix(v);
  }
  mix(d.annotations.size());
  for (const Annotation& a : d.annotations) {
    mix(a.u);
    mix(a.v);
    mix(a.is_match ? 1 : 0);
  }
  mix(d.path_pairs.size());
  for (const PathPairExample& p : d.path_pairs) {
    for (const auto& s : p.rel_path) mix_str(s);
    for (const auto& s : p.g_path) mix_str(s);
    mix(p.match ? 1 : 0);
  }
  return h;
}

namespace {

DatasetSpec BaseSpec(std::string name, uint64_t seed) {
  DatasetSpec spec;
  spec.name = std::move(name);
  spec.seed = seed;
  return spec;
}

}  // namespace

DatasetSpec UkgovSpec(uint64_t seed) {
  DatasetSpec s = BaseSpec("UKGOV", seed);
  s.num_entities = 380;
  s.num_brands = 18;
  s.noise.value_variant_prob = 0.3;
  s.noise.drop_attr_prob = 0.12;
  return s;
}

DatasetSpec DbpediaSpec(uint64_t seed) {
  DatasetSpec s = BaseSpec("DBpediaP", seed);
  s.num_entities = 420;
  s.num_brands = 24;
  s.noise.value_variant_prob = 0.45;  // many alias renderings
  s.noise.drop_attr_prob = 0.1;
  return s;
}

DatasetSpec DblpSpec(uint64_t seed) {
  DatasetSpec s = BaseSpec("DBLP", seed);
  s.num_entities = 450;
  s.num_brands = 30;  // venues
  s.noise.value_variant_prob = 0.5;  // abbreviation-heavy titles/venues
  s.noise.drop_attr_prob = 0.15;
  s.distractor_ratio = 0.7;
  return s;
}

DatasetSpec ImdbSpec(uint64_t seed) {
  DatasetSpec s = BaseSpec("IMDB", seed);
  s.num_entities = 400;
  s.num_brands = 20;  // studios
  s.noise.value_variant_prob = 0.25;
  s.distractor_ratio = 0.8;
  return s;
}

DatasetSpec FbwikiSpec(uint64_t seed) {
  DatasetSpec s = BaseSpec("FBWIKI", seed);
  s.num_entities = 420;
  s.num_brands = 26;
  s.noise.value_variant_prob = 0.3;
  s.noise.deep_path_prob = 0.8;  // deep property paths
  s.noise.extra_attr_prob = 0.35;
  return s;
}

DatasetSpec ToughTablesSpec(uint64_t seed) {
  DatasetSpec s = BaseSpec("2T", seed);
  s.num_entities = 200;
  s.num_brands = 16;
  s.noise.value_variant_prob = 0.25;
  s.noise.typo_prob = 0.75;  // the dataset's defining misspelling noise
  s.noise.typo_count = 3;
  return s;
}

DatasetSpec ScalingSpec(int num_entities, uint64_t seed) {
  DatasetSpec s = BaseSpec("TPCH", seed);
  s.num_entities = num_entities;
  s.num_brands = std::max(4, num_entities / 12);
  s.num_categories = std::max(4, num_entities / 40);
  s.annotations_per_class = std::min(200, num_entities / 2);
  return s;
}

std::vector<DatasetSpec> TableVSpecs() {
  return {UkgovSpec(), DbpediaSpec(), DblpSpec(), ImdbSpec(), FbwikiSpec()};
}

}  // namespace her
