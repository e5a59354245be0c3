/**
 * @file
 * Unit tests for the ISA module: instruction classification, basic
 * blocks, CFG construction and program validation.
 */

#include <gtest/gtest.h>

#include "isa/cfg_builder.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

using namespace sfetch;

TEST(Instruction, AlwaysTaken)
{
    EXPECT_FALSE(alwaysTaken(BranchType::None));
    EXPECT_FALSE(alwaysTaken(BranchType::CondDirect));
    EXPECT_TRUE(alwaysTaken(BranchType::Jump));
    EXPECT_TRUE(alwaysTaken(BranchType::Call));
    EXPECT_TRUE(alwaysTaken(BranchType::Return));
    EXPECT_TRUE(alwaysTaken(BranchType::IndirectJump));
}

TEST(Instruction, IsControl)
{
    EXPECT_FALSE(isControl(BranchType::None));
    EXPECT_TRUE(isControl(BranchType::CondDirect));
    EXPECT_TRUE(isControl(BranchType::Return));
}

TEST(Instruction, Names)
{
    EXPECT_EQ(toString(InstClass::Load), "Load");
    EXPECT_EQ(toString(BranchType::CondDirect), "CondDirect");
    EXPECT_EQ(toString(BranchType::IndirectJump), "IndirectJump");
}

TEST(BasicBlock, SizeAndFlags)
{
    BasicBlock b;
    b.numInsts = 5;
    b.branchType = BranchType::CondDirect;
    EXPECT_EQ(b.sizeBytes(), 20u);
    EXPECT_TRUE(b.hasBranch());
    EXPECT_TRUE(b.needsSequentialSuccessor());

    b.branchType = BranchType::Jump;
    EXPECT_FALSE(b.needsSequentialSuccessor());
    b.branchType = BranchType::Call;
    EXPECT_TRUE(b.needsSequentialSuccessor());
    b.branchType = BranchType::None;
    EXPECT_FALSE(b.hasBranch());
    EXPECT_TRUE(b.needsSequentialSuccessor());
}

namespace
{

/** A small well-formed program: loop with hammock, call, return. */
Program
smallProgram()
{
    CfgBuilder b("small");
    BlockId entry = b.addBlock(4);
    BlockId arm = b.addBlock(3);
    BlockId join = b.addBlock(5);
    BlockId latch = b.addBlock(2);
    BlockId callee = b.addBlock(4);
    BlockId exit = b.addBlock(2);

    b.cond(entry, join, arm);   // taken skips the arm
    b.fallthrough(arm, join);
    b.call(join, callee, latch);
    b.ret(callee);
    b.cond(latch, entry, exit); // back edge
    b.ret(exit);
    return b.build(entry);
}

} // namespace

TEST(CfgBuilder, BuildsValidProgram)
{
    Program p = smallProgram();
    EXPECT_EQ(p.validate(), "");
    EXPECT_EQ(p.numBlocks(), 6u);
    EXPECT_EQ(p.staticInsts(), 4u + 3 + 5 + 2 + 4 + 2);
    EXPECT_EQ(p.entry(), 0u);
}

TEST(CfgBuilder, TerminatorIsBranchInstruction)
{
    Program p = smallProgram();
    for (const auto &blk : p.blocks()) {
        if (blk.hasBranch()) {
            EXPECT_EQ(p.insts(blk.id)[blk.numInsts - 1],
                      InstClass::Branch)
                << "block " << blk.id;
        }
    }
}

TEST(CfgBuilder, FallthroughBlocksHaveNoBranchInst)
{
    Program p = smallProgram();
    for (const auto &blk : p.blocks()) {
        if (blk.branchType != BranchType::None)
            continue;
        for (std::uint32_t k = 0; k < blk.numInsts; ++k)
            EXPECT_NE(p.insts(blk.id)[k], InstClass::Branch);
    }
}

TEST(CfgBuilder, SetInstsOverrides)
{
    CfgBuilder b("x");
    BlockId a = b.addBlock(3);
    b.ret(a);
    b.setInsts(a, {InstClass::Load, InstClass::Store,
                   InstClass::Branch});
    Program p = b.build(a);
    EXPECT_EQ(p.insts(a)[0], InstClass::Load);
    EXPECT_EQ(p.insts(a)[1], InstClass::Store);
}

TEST(CfgBuilder, IndirectTargets)
{
    CfgBuilder b("sw");
    BlockId s = b.addBlock(2);
    BlockId c1 = b.addBlock(2);
    BlockId c2 = b.addBlock(2);
    b.indirect(s, {c1, c2});
    b.jump(c1, s);
    b.jump(c2, s);
    Program p = b.build(s);
    EXPECT_EQ(p.validate(), "");
    ASSERT_EQ(p.indirectTargets(s).size(), 2u);
    EXPECT_EQ(p.indirectTargets(s)[0], c1);
    EXPECT_EQ(p.indirectTargets(s)[1], c2);
}

// ---- validation failures ----

TEST(ProgramValidate, EmptyProgram)
{
    Program p("empty", {}, 0);
    EXPECT_NE(p.validate(), "");
}

TEST(ProgramValidate, EntryOutOfRange)
{
    BlockSpec b;
    b.numInsts = 1;
    b.branchType = BranchType::Return;
    b.insts = {InstClass::Branch};
    Program p("x", {b}, 5);
    EXPECT_NE(p.validate(), "");
}

TEST(ProgramValidate, SuccessorOutOfRange)
{
    BlockSpec b;
    b.numInsts = 1;
    b.branchType = BranchType::Jump;
    b.target = 42; // out of range
    b.insts = {InstClass::Branch};
    Program p("x", {b}, 0);
    EXPECT_NE(p.validate(), "");
}

TEST(ProgramValidate, InstVectorSizeMismatch)
{
    BlockSpec b;
    b.numInsts = 3;
    b.branchType = BranchType::Return;
    b.insts = {InstClass::Branch}; // wrong size
    Program p("x", {b}, 0);
    EXPECT_NE(p.validate(), "");
}

TEST(ProgramValidate, TerminatorNotBranchClass)
{
    BlockSpec b;
    b.numInsts = 1;
    b.branchType = BranchType::Return;
    b.insts = {InstClass::IntAlu}; // should be Branch
    Program p("x", {b}, 0);
    EXPECT_NE(p.validate(), "");
}

TEST(ProgramValidate, BranchInsideFallthroughBlock)
{
    BlockSpec b;
    b.numInsts = 2;
    b.branchType = BranchType::None;
    b.fallthrough = 0;
    b.insts = {InstClass::Branch, InstClass::IntAlu};
    Program p("x", {b}, 0);
    EXPECT_NE(p.validate(), "");
}

TEST(ProgramValidate, IndirectWithNoTargets)
{
    BlockSpec b;
    b.numInsts = 1;
    b.branchType = BranchType::IndirectJump;
    b.insts = {InstClass::Branch};
    Program p("x", {b}, 0);
    EXPECT_NE(p.validate(), "");
}

TEST(ProgramValidate, ZeroSizeBlock)
{
    BlockSpec b;
    b.numInsts = 0;
    Program p("x", {b}, 0);
    EXPECT_NE(p.validate(), "");
}

TEST(Program, IdsAssignedDensely)
{
    Program p = smallProgram();
    for (std::size_t i = 0; i < p.numBlocks(); ++i)
        EXPECT_EQ(p.block(static_cast<BlockId>(i)).id, i);
}
