#include "textflag.h"

// Each record's area and enlargement take geom.Rect's Union, Width,
// Height and Area operations in their order, the two axes side by side
// in one register. X0 holds q's (MinX, MinY) and X1 its (MaxX, MaxY)
// throughout; the best record so far is AX, its enlargement X7 (in both
// lanes) and its area X8.

// ENLARGE1 leaves the record at 0(SI)'s enlargement in X3 and its area
// in X4. Clobbers X2, X5 and X6.
#define ENLARGE1 \
	MOVUPD   0(SI), X2  \
	MOVUPD   16(SI), X3 \
	MOVAPD   X3, X4     \
	SUBPD    X2, X4     \
	MINPD    X0, X2     \
	MAXPD    X1, X3     \
	SUBPD    X2, X3     \
	MOVAPD   X4, X5     \
	UNPCKHPD X5, X5     \
	MULSD    X5, X4     \
	MOVAPD   X3, X6     \
	UNPCKHPD X6, X6     \
	MULSD    X6, X3     \
	SUBSD    X4, X3

// ENLARGE2 does ENLARGE1 for the records at 0(SI) and 0(SI)(DX*1) at
// once: their enlargements in X3's low and high lane, their areas in
// X4's. Clobbers X2, X5, X6 and X10 to X12.
#define ENLARGE2 \
	MOVUPD   0(SI), X2          \
	MOVUPD   16(SI), X3         \
	MOVUPD   0(SI)(DX*1), X10   \
	MOVUPD   16(SI)(DX*1), X11  \
	MOVAPD   X3, X4             \
	SUBPD    X2, X4             \
	MOVAPD   X11, X12           \
	SUBPD    X10, X12           \
	MINPD    X0, X2             \
	MAXPD    X1, X3             \
	SUBPD    X2, X3             \
	MINPD    X0, X10            \
	MAXPD    X1, X11            \
	SUBPD    X10, X11           \
	MOVAPD   X4, X5             \
	UNPCKLPD X12, X5            \
	UNPCKHPD X12, X4            \
	MULPD    X5, X4             \
	MOVAPD   X3, X6             \
	UNPCKLPD X11, X6            \
	UNPCKHPD X11, X3            \
	MULPD    X6, X3             \
	SUBPD    X4, X3

// func ChooseSubtree(base unsafe.Pointer, n int, stride int, q geom.Rect) int
TEXT ·ChooseSubtree(SB), NOSPLIT, $0-64
	MOVQ   base+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVQ   stride+16(FP), DX
	MOVQ   $-1, AX
	TESTQ  CX, CX
	JLE    done
	MOVSD  q_MinX+24(FP), X0
	MOVHPD q_MinY+32(FP), X0
	MOVSD  q_MaxX+40(FP), X1
	MOVHPD q_MaxY+48(FP), X1

	// Record 0 is the first best, whatever its enlargement.
	ENLARGE1
	XORQ     AX, AX
	MOVAPD   X3, X7
	UNPCKLPD X7, X7
	MOVAPD   X4, X8
	MOVQ     $1, BX          // i
	ADDQ     DX, SI
	LEAQ     -1(CX), R9

pairs: // records i and i+1, while both exist
	CMPQ     BX, R9
	JGE      tail
	ENLARGE2
	// Neither record can win unless one's enlargement is <= bestEnl
	// (ordered: a NaN enlargement never wins).
	MOVAPD   X3, X9
	CMPPD    X7, X9, $2
	MOVMSKPD X9, R10
	TESTQ    R10, R10
	JEQ      nextpair
	UCOMISD  X3, X7          // unordered sets ZF, PF and CF
	JHI      takeA           // enlA < bestEnl
	JNE      checkB
	JPS      checkB
	UCOMISD  X4, X8
	JLS      checkB          // not areaA < bestArea

takeA:
	MOVQ     BX, AX
	MOVSD    X3, X7
	MOVSD    X4, X8

checkB:
	MOVHLPS  X3, X3
	MOVHLPS  X4, X4
	UCOMISD  X3, X7
	JHI      takeB
	JNE      broadcast
	JPS      broadcast
	UCOMISD  X4, X8
	JLS      broadcast

takeB:
	LEAQ     1(BX), AX
	MOVSD    X3, X7
	MOVSD    X4, X8

broadcast:
	UNPCKLPD X7, X7

nextpair:
	LEAQ     (SI)(DX*2), SI
	ADDQ     $2, BX
	JMP      pairs

tail: // the last record when i = n-1
	CMPQ     BX, CX
	JGE      done
	ENLARGE1
	UCOMISD  X3, X7
	JHI      takeLast
	JNE      done
	JPS      done
	UCOMISD  X4, X8
	JLS      done

takeLast:
	MOVQ     BX, AX

done:
	MOVQ     AX, ret+56(FP)
	RET
