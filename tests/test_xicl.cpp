//===- tests/test_xicl.cpp - XICL spec, translator, extensibility ---------==//

#include "xicl/RuntimeChannel.h"
#include "xicl/Spec.h"
#include "xicl/Translator.h"
#include "xicl/XFMethod.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

using namespace evm;
using namespace evm::xicl;

namespace {

/// The paper's Fig. 2(b) specification.
const char *RouteSpec =
    "option {name=-n; type=num; attr=val; default=1; has_arg=y}\n"
    "option {name=-e:--echo; type=bin; attr=val; default=0; has_arg=n}\n"
    "operand {position=1:$; type=file; attr=mnodes:medges}\n";

/// Registry with the route example's mNodes/mEdges extractors installed.
XFMethodRegistry routeRegistry() {
  XFMethodRegistry Registry;
  auto FileAttr = [](const char *Attr) {
    return [Attr](const std::string &Raw, const ExtractionContext &Ctx) {
      std::vector<Feature> Out;
      double V = 0;
      if (Ctx.Files) {
        if (auto Info = Ctx.Files->lookup(Raw)) {
          auto It = Info->Attributes.find(Attr);
          if (It != Info->Attributes.end())
            V = It->second;
        }
      }
      Out.push_back(Feature::numeric(
          Ctx.FeatureNamePrefix + ".m" + Attr, V));
      return Out;
    };
  };
  Registry.registerMethod("mnodes", FileAttr("nodes"));
  Registry.registerMethod("medges", FileAttr("edges"));
  return Registry;
}

FileStore routeFiles() {
  FileStore Files;
  FileInfo G;
  G.SizeBytes = 12000;
  G.Lines = 1000;
  G.Attributes["nodes"] = 100;
  G.Attributes["edges"] = 1000;
  Files.registerFile("graph", G);
  return Files;
}

} // namespace

//===----------------------------------------------------------------------===//
// Spec parser
//===----------------------------------------------------------------------===//

TEST(SpecParserTest, ParsesPaperExample) {
  auto S = parseSpec(RouteSpec);
  ASSERT_TRUE(static_cast<bool>(S));
  ASSERT_EQ(S->Options.size(), 2u);
  ASSERT_EQ(S->Operands.size(), 1u);
  EXPECT_EQ(S->Options[0].primaryName(), "-n");
  EXPECT_EQ(S->Options[0].Type, ComponentType::Num);
  EXPECT_TRUE(S->Options[0].HasArg);
  EXPECT_EQ(S->Options[0].Default, "1");
  EXPECT_EQ(S->Options[1].Names.size(), 2u);
  EXPECT_TRUE(S->Options[1].matches("--echo"));
  EXPECT_TRUE(S->Options[1].matches("-e"));
  EXPECT_EQ(S->Operands[0].PosStart, 1);
  EXPECT_EQ(S->Operands[0].PosEnd, -1); // '$'
  EXPECT_EQ(S->Operands[0].Attrs.size(), 2u);
  EXPECT_EQ(S->numDeclaredAttrs(), 4u);
}

TEST(SpecParserTest, MultiLineConstruct) {
  auto S = parseSpec("option {name=-x;\n  type=num;\n  attr=val;\n"
                     "  has_arg=y}\n");
  ASSERT_TRUE(static_cast<bool>(S));
  EXPECT_EQ(S->Options[0].primaryName(), "-x");
}

TEST(SpecParserTest, CommentsIgnored) {
  auto S = parseSpec("# the whole app\n"
                     "option {name=-a; type=bin; attr=val} # trailing\n");
  ASSERT_TRUE(static_cast<bool>(S));
}

TEST(SpecParserTest, SinglePositionOperand) {
  auto S = parseSpec("operand {position=2; type=str; attr=len}\n");
  ASSERT_TRUE(static_cast<bool>(S));
  EXPECT_EQ(S->Operands[0].PosStart, 2);
  EXPECT_EQ(S->Operands[0].PosEnd, 2);
  EXPECT_TRUE(S->Operands[0].coversPosition(2));
  EXPECT_FALSE(S->Operands[0].coversPosition(1));
}

TEST(SpecParserTest, ComponentTypes) {
  EXPECT_EQ(*parseComponentType("num"), ComponentType::Num);
  EXPECT_EQ(*parseComponentType("bin"), ComponentType::Bin);
  EXPECT_EQ(*parseComponentType("str"), ComponentType::Str);
  EXPECT_EQ(*parseComponentType("file"), ComponentType::File);
  EXPECT_FALSE(parseComponentType("blob").has_value());
}

namespace {

std::string specErrorOf(const char *Source) {
  auto S = parseSpec(Source);
  EXPECT_FALSE(static_cast<bool>(S));
  return S ? std::string() : S.getError().message();
}

} // namespace

TEST(SpecParserDiagnostics, MissingName) {
  EXPECT_NE(specErrorOf("option {type=num; attr=val}\n").find("name"),
            std::string::npos);
}

TEST(SpecParserDiagnostics, UnknownType) {
  EXPECT_NE(specErrorOf("option {name=-x; type=zzz; attr=val}\n")
                .find("unknown type"),
            std::string::npos);
}

TEST(SpecParserDiagnostics, UnknownField) {
  EXPECT_NE(specErrorOf("option {name=-x; type=num; attr=val; color=red}\n")
                .find("unknown option field"),
            std::string::npos);
}

TEST(SpecParserDiagnostics, BadHasArg) {
  EXPECT_NE(
      specErrorOf("option {name=-x; type=num; attr=val; has_arg=maybe}\n")
          .find("has_arg"),
      std::string::npos);
}

TEST(SpecParserDiagnostics, MissingPosition) {
  EXPECT_NE(specErrorOf("operand {type=file; attr=fsize}\n")
                .find("position"),
            std::string::npos);
}

TEST(SpecParserDiagnostics, NoAttrs) {
  EXPECT_NE(specErrorOf("option {name=-x; type=num}\n").find("attributes"),
            std::string::npos);
}

TEST(SpecParserDiagnostics, EmptySpec) {
  EXPECT_NE(specErrorOf("# nothing here\n").find("no constructs"),
            std::string::npos);
}

TEST(SpecParserDiagnostics, UnterminatedConstruct) {
  EXPECT_NE(specErrorOf("option {name=-x; type=num; attr=val\n")
                .find("unterminated"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Translator: the paper's running example
//===----------------------------------------------------------------------===//

TEST(TranslatorTest, PaperExampleVector) {
  // "route -n 3 graph" with a 100-node/1000-edge graph must produce the
  // vector (3, 0, 100, 1000) — paper Sec. III-A1 (plus the range-operand
  // count feature our aggregation adds).
  auto S = parseSpec(RouteSpec);
  ASSERT_TRUE(static_cast<bool>(S));
  XFMethodRegistry Registry = routeRegistry();
  FileStore Files = routeFiles();
  XICLTranslator T(S.takeValue(), &Registry, &Files);

  auto FV = T.buildFVector("route -n 3 graph");
  ASSERT_TRUE(static_cast<bool>(FV));
  int N = FV->indexOf("-n.val");
  int E = FV->indexOf("-e.val");
  int Nodes = FV->indexOf("operands1_$.mnodes");
  int Edges = FV->indexOf("operands1_$.medges");
  ASSERT_GE(N, 0);
  ASSERT_GE(E, 0);
  ASSERT_GE(Nodes, 0);
  ASSERT_GE(Edges, 0);
  EXPECT_DOUBLE_EQ((*FV)[static_cast<size_t>(N)].Num, 3);
  EXPECT_DOUBLE_EQ((*FV)[static_cast<size_t>(E)].Num, 0); // default
  EXPECT_DOUBLE_EQ((*FV)[static_cast<size_t>(Nodes)].Num, 100);
  EXPECT_DOUBLE_EQ((*FV)[static_cast<size_t>(Edges)].Num, 1000);
}

TEST(TranslatorTest, FlagPresenceSetsOne) {
  auto S = parseSpec(RouteSpec);
  XFMethodRegistry Registry = routeRegistry();
  FileStore Files = routeFiles();
  XICLTranslator T(S.takeValue(), &Registry, &Files);
  auto FV = T.buildFVector("route --echo graph");
  ASSERT_TRUE(static_cast<bool>(FV));
  EXPECT_DOUBLE_EQ(
      (*FV)[static_cast<size_t>(FV->indexOf("-e.val"))].Num, 1);
}

TEST(TranslatorTest, AliasesShareTheOption) {
  auto S = parseSpec(RouteSpec);
  XFMethodRegistry Registry = routeRegistry();
  FileStore Files = routeFiles();
  XICLTranslator T(S.takeValue(), &Registry, &Files);
  auto A = T.buildFVector("route -e graph");
  auto B = T.buildFVector("route --echo graph");
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(A->str(), B->str());
}

TEST(TranslatorTest, MultipleOperandsAggregate) {
  auto S = parseSpec(RouteSpec);
  XFMethodRegistry Registry = routeRegistry();
  FileStore Files = routeFiles();
  FileInfo G2;
  G2.Attributes["nodes"] = 50;
  G2.Attributes["edges"] = 200;
  Files.registerFile("graph2", G2);
  XICLTranslator T(S.takeValue(), &Registry, &Files);
  auto FV = T.buildFVector("route graph graph2");
  ASSERT_TRUE(static_cast<bool>(FV));
  EXPECT_DOUBLE_EQ(
      (*FV)[static_cast<size_t>(FV->indexOf("operands1_$.count"))].Num, 2);
  EXPECT_DOUBLE_EQ(
      (*FV)[static_cast<size_t>(FV->indexOf("operands1_$.mnodes"))].Num,
      150); // summed
}

TEST(TranslatorTest, StableSchemaAcrossInputs) {
  auto S = parseSpec(RouteSpec);
  XFMethodRegistry Registry = routeRegistry();
  FileStore Files = routeFiles();
  XICLTranslator T(S.takeValue(), &Registry, &Files);
  auto A = T.buildFVector("route graph");
  auto B = T.buildFVector("route -n 9 -e graph graph");
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  ASSERT_EQ(A->size(), B->size());
  for (size_t I = 0; I != A->size(); ++I)
    EXPECT_EQ((*A)[I].Name, (*B)[I].Name);
  // And schemaFeatureNames agrees.
  auto Names = T.schemaFeatureNames();
  ASSERT_EQ(Names.size(), A->size());
  for (size_t I = 0; I != Names.size(); ++I)
    EXPECT_EQ(Names[I], (*A)[I].Name);
}

TEST(TranslatorTest, UnknownOptionReported) {
  auto S = parseSpec(RouteSpec);
  XFMethodRegistry Registry = routeRegistry();
  XICLTranslator T(S.takeValue(), &Registry, nullptr);
  auto FV = T.buildFVector("route -z graph");
  ASSERT_FALSE(static_cast<bool>(FV));
  EXPECT_NE(FV.getError().message().find("unknown option"),
            std::string::npos);
}

TEST(TranslatorTest, MissingArgumentReported) {
  auto S = parseSpec(RouteSpec);
  XFMethodRegistry Registry = routeRegistry();
  XICLTranslator T(S.takeValue(), &Registry, nullptr);
  auto FV = T.buildFVector("route -n");
  ASSERT_FALSE(static_cast<bool>(FV));
  EXPECT_NE(FV.getError().message().find("requires an argument"),
            std::string::npos);
}

TEST(TranslatorTest, UnresolvedMethodReported) {
  auto S = parseSpec("operand {position=1; type=file; attr=mfoo}\n");
  XFMethodRegistry Registry; // mfoo not registered
  XICLTranslator T(S.takeValue(), &Registry, nullptr);
  auto FV = T.buildFVector("app x");
  ASSERT_FALSE(static_cast<bool>(FV));
  EXPECT_NE(FV.getError().message().find("mfoo"), std::string::npos);
}

TEST(TranslatorTest, NegativeNumbersAreOperands) {
  auto S = parseSpec("operand {position=1; type=num; attr=val}\n");
  XFMethodRegistry Registry;
  XICLTranslator T(S.takeValue(), &Registry, nullptr);
  auto FV = T.buildFVector("app -42");
  ASSERT_TRUE(static_cast<bool>(FV));
  EXPECT_DOUBLE_EQ((*FV)[0].Num, -42);
}

TEST(TranslatorTest, PredefinedLenAndFileAttrs) {
  auto S = parseSpec("operand {position=1; type=str; attr=len}\n"
                     "operand {position=2; type=file; attr=fsize:flines}\n");
  XFMethodRegistry Registry;
  FileStore Files;
  FileInfo Doc;
  Doc.SizeBytes = 2048;
  Doc.Lines = 99;
  Files.registerFile("doc.xml", Doc);
  XICLTranslator T(S.takeValue(), &Registry, &Files);
  auto FV = T.buildFVector("app hello doc.xml");
  ASSERT_TRUE(static_cast<bool>(FV));
  EXPECT_DOUBLE_EQ((*FV)[static_cast<size_t>(FV->indexOf("operand1.len"))]
                       .Num,
                   5);
  EXPECT_DOUBLE_EQ(
      (*FV)[static_cast<size_t>(FV->indexOf("operand2.fsize"))].Num, 2048);
  EXPECT_DOUBLE_EQ(
      (*FV)[static_cast<size_t>(FV->indexOf("operand2.flines"))].Num, 99);
}

TEST(TranslatorTest, CategoricalStrOption) {
  auto S = parseSpec(
      "option {name=-o; type=str; attr=val; default=java; has_arg=y}\n");
  XFMethodRegistry Registry;
  XICLTranslator T(S.takeValue(), &Registry, nullptr);
  auto FV = T.buildFVector("antlr -o cpp");
  ASSERT_TRUE(static_cast<bool>(FV));
  EXPECT_FALSE((*FV)[0].isNumeric());
  EXPECT_EQ((*FV)[0].Cat, "cpp");
  auto FV2 = T.buildFVector("antlr");
  EXPECT_EQ((*FV2)[0].Cat, "java"); // default applies
}

TEST(TranslatorTest, StatsAccumulateWork) {
  auto S = parseSpec(RouteSpec);
  XFMethodRegistry Registry = routeRegistry();
  FileStore Files = routeFiles();
  XICLTranslator T(S.takeValue(), &Registry, &Files);
  auto FV = T.buildFVector("route -n 3 graph");
  ASSERT_TRUE(static_cast<bool>(FV));
  EXPECT_GT(T.lastStats().TokensScanned, 0u);
  EXPECT_GT(T.lastStats().FeaturesExtracted, 0u);
  EXPECT_GT(T.lastStats().FileLookups, 0u);
  EXPECT_GT(T.lastStats().toCycles(), 0u);
}

//===----------------------------------------------------------------------===//
// XFMethod registry
//===----------------------------------------------------------------------===//

TEST(XFMethodTest, PredefinedInstalled) {
  XFMethodRegistry Registry;
  EXPECT_NE(Registry.getMethod("val"), nullptr);
  EXPECT_NE(Registry.getMethod("len"), nullptr);
  EXPECT_NE(Registry.getMethod("fsize"), nullptr);
  EXPECT_NE(Registry.getMethod("flines"), nullptr);
  EXPECT_EQ(Registry.getMethod("mcustom"), nullptr);
}

TEST(XFMethodTest, PredefinedNamePredicate) {
  EXPECT_TRUE(XFMethodRegistry::isPredefined("val"));
  EXPECT_FALSE(XFMethodRegistry::isPredefined("mnodes"));
}

TEST(XFMethodTest, ProgrammerDefinedOverride) {
  XFMethodRegistry Registry;
  Registry.registerMethod(
      "mfoo", [](const std::string &Raw, const ExtractionContext &Ctx) {
        std::vector<Feature> Out;
        Out.push_back(Feature::numeric(Ctx.FeatureNamePrefix + ".mfoo",
                                       static_cast<double>(Raw.size() * 2)));
        return Out;
      });
  const XFMethod *M = Registry.getMethod("mfoo");
  ASSERT_NE(M, nullptr);
  ExtractionContext Ctx;
  Ctx.FeatureNamePrefix = "operand1";
  auto Features = (*M)("abc", Ctx);
  ASSERT_EQ(Features.size(), 1u);
  EXPECT_DOUBLE_EQ(Features[0].Num, 6);
}

TEST(TranslatorTest, NonFiniteNumbersReadZero) {
  // strtod accepts "inf" and "nan", and a range operand's numeric sum can
  // overflow.  Features must stay finite (the store writes them as JSON,
  // tree induction sorts them), so each reads 0 like an unparsable value.
  auto S = parseSpec(
      "option {name=-n; type=num; attr=val; default=1; has_arg=y}\n"
      "operand {position=1:$; type=num; attr=val}\n");
  ASSERT_TRUE(static_cast<bool>(S));
  XFMethodRegistry Registry;
  XICLTranslator T(S.takeValue(), &Registry, nullptr);
  auto Num = [](const FeatureVector &FV, const char *Name) {
    int I = FV.indexOf(Name);
    EXPECT_GE(I, 0) << Name;
    return I < 0 ? -1.0 : FV[static_cast<size_t>(I)].Num;
  };
  for (const char *Bad : {"inf", "-inf", "nan", "-nan", "infinity"}) {
    auto FV = T.buildFVector(std::string("app -n ") + Bad + " 5");
    ASSERT_TRUE(static_cast<bool>(FV)) << Bad;
    EXPECT_EQ(Num(*FV, "-n.val"), 0) << Bad;
    EXPECT_EQ(Num(*FV, "operands1_$.val"), 5) << Bad;
  }
  // A leading '-' would make an operand an option, so operands only come
  // unsigned.
  for (const char *Bad : {"inf", "nan", "infinity"}) {
    auto FV = T.buildFVector(std::string("app 5 ") + Bad);
    ASSERT_TRUE(static_cast<bool>(FV)) << Bad;
    EXPECT_EQ(Num(*FV, "operands1_$.val"), 0) << Bad; // 5 + non-finite
  }
  auto Overflow = T.buildFVector("app 1e308 1e308");
  ASSERT_TRUE(static_cast<bool>(Overflow));
  EXPECT_EQ(Num(*Overflow, "operands1_$.val"), 0);
  EXPECT_EQ(Num(*Overflow, "operands1_$.count"), 2);
  auto Finite = T.buildFVector("app -n 2.5 1e307 1e307");
  ASSERT_TRUE(static_cast<bool>(Finite));
  EXPECT_EQ(Num(*Finite, "-n.val"), 2.5);
  EXPECT_EQ(Num(*Finite, "operands1_$.val"), 2e307);
}

//===----------------------------------------------------------------------===//
// Runtime channel (updateV / done)
//===----------------------------------------------------------------------===//

TEST(FeatureChannelTest, UpdateVReplacesOrAppends) {
  FeatureChannel Channel;
  Channel.updateV("mstage", Feature::numeric("", 1));
  EXPECT_EQ(Channel.vector().size(), 1u);
  Channel.updateV("mstage", Feature::numeric("", 2));
  EXPECT_EQ(Channel.vector().size(), 1u);
  EXPECT_DOUBLE_EQ(Channel.vector()[0].Num, 2);
  EXPECT_EQ(Channel.numUpdates(), 2);
}

TEST(FeatureChannelTest, UpdateVKeepsNumbersFinite) {
  FeatureChannel Channel;
  Channel.updateV("mlen", Feature::numeric(
                              "", std::numeric_limits<double>::infinity()));
  EXPECT_EQ(Channel.vector()[0].Num, 0);
  Channel.updateV("mlen", Feature::numeric(
                              "", std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(Channel.vector()[0].Num, 0);
  Channel.updateV("mlen", Feature::numeric("", -3.5));
  EXPECT_EQ(Channel.vector()[0].Num, -3.5);
}

TEST(FeatureChannelTest, DoneFiresCallbackWithSnapshot) {
  FeatureChannel Channel;
  int Calls = 0;
  double Seen = 0;
  Channel.setDoneCallback([&](const FeatureVector &FV) {
    ++Calls;
    Seen = FV.Features.empty() ? -1 : FV.Features[0].Num;
  });
  Channel.updateV("mlen", Feature::numeric("", 7));
  Channel.done();
  EXPECT_EQ(Calls, 1);
  EXPECT_DOUBLE_EQ(Seen, 7);
  // Interactive points re-trigger prediction.
  Channel.updateV("mlen", Feature::numeric("", 9));
  Channel.done();
  EXPECT_EQ(Calls, 2);
  EXPECT_DOUBLE_EQ(Seen, 9);
  EXPECT_EQ(Channel.numDoneCalls(), 2);
}

TEST(FeatureChannelTest, DoneWithoutCallbackIsSafe) {
  FeatureChannel Channel;
  Channel.done();
  EXPECT_EQ(Channel.numDoneCalls(), 1);
}

TEST(FeatureVectorTest, StrRendering) {
  FeatureVector FV;
  FV.append(Feature::numeric("a", 2));
  FV.append(Feature::categorical("b", "xyz"));
  EXPECT_EQ(FV.str(), "a=2, b=xyz");
}

//===----------------------------------------------------------------------===//
// FileStore
//===----------------------------------------------------------------------===//

TEST(FileStoreTest, LookupMissReturnsNullopt) {
  FileStore Files;
  EXPECT_FALSE(Files.lookup("absent").has_value());
  EXPECT_EQ(Files.size(), 0u);
}

TEST(FileStoreTest, RegisterAndLookup) {
  FileStore Files = routeFiles();
  auto Info = Files.lookup("graph");
  ASSERT_TRUE(Info.has_value());
  EXPECT_DOUBLE_EQ(Info->SizeBytes, 12000);
  EXPECT_DOUBLE_EQ(Info->Lines, 1000);
  EXPECT_DOUBLE_EQ(Info->Attributes.at("nodes"), 100);
  EXPECT_EQ(Files.size(), 1u);
}

TEST(FileStoreTest, ReRegisterOverwrites) {
  FileStore Files = routeFiles();
  FileInfo Smaller;
  Smaller.SizeBytes = 5;
  Smaller.Attributes["nodes"] = 2;
  Files.registerFile("graph", Smaller);
  EXPECT_EQ(Files.size(), 1u);
  auto Info = Files.lookup("graph");
  ASSERT_TRUE(Info.has_value());
  EXPECT_DOUBLE_EQ(Info->SizeBytes, 5);
  EXPECT_DOUBLE_EQ(Info->Attributes.at("nodes"), 2);
  EXPECT_EQ(Info->Attributes.count("edges"), 0u);
}

TEST(FileStoreTest, ClearEmptiesTheStore) {
  FileStore Files = routeFiles();
  Files.registerFile("other", FileInfo());
  EXPECT_EQ(Files.size(), 2u);
  Files.clear();
  EXPECT_EQ(Files.size(), 0u);
  EXPECT_FALSE(Files.lookup("graph").has_value());
}
