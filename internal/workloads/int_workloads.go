package workloads

import "fmt"

// cc1x models cc1 (GCC compiling explow.i): a compiler front end spends its
// time scanning characters, hashing identifiers into symbol tables, and
// walking tree structures. Those activities produce irregular control flow
// and pointer-chasing-style serial chains broken up by independent
// per-token work — the paper measured cc1 at a modest 36x parallelism with
// a long critical path. The symbol table has 1024 slots per unit of scale:
// each scale unit adds two passes of fresh identifiers (872 distinct at
// scale 1, 1,502 at scale 2), and the linear probe ends only while a slot
// is free.
func cc1xSource(scale int) string {
	return fmt.Sprintf(`
// cc1x: scanner + symbol table + tree walk (models cc1)
int text[4096];
int textLen = 0;
int htabKey[%[1]d];
int htabCount[%[1]d];
int treeVal[2048];
int treeLeft[2048];
int treeRight[2048];
int treeN = 0;

// Synthesize "source text": identifiers, numbers, operators.
void gentext(int seed) {
    int i;
    int s = seed;
    textLen = 0;
    for (i = 0; i < 4000; i = i + 1) {
        s = (s * 1103515245 + 12345) & 0x7fffffff;
        int r = s %% 100;
        int c;
        if (r < 55) {
            c = 97 + s %% 26;          // a-z
        } else {
            if (r < 80) { c = 48 + s %% 10; }   // 0-9
            else {
                if (r < 90) { c = 43; }          // '+'
                else {
                    if (r < 97) { c = 32; }      // space
                    else { c = 59; }             // ';'
                }
            }
        }
        text[textLen] = c;
        textLen = textLen + 1;
    }
}

int hashInsert(int key) {
    int h = key %% %[1]d;
    if (h < 0) { h = h + %[1]d; }
    while (htabKey[h] != 0 && htabKey[h] != key) {
        h = (h + 1) %% %[1]d;
    }
    htabKey[h] = key;
    htabCount[h] = htabCount[h] + 1;
    return htabCount[h];
}

int buildTree(int lo, int hi) {
    if (lo > hi) { return -1; }
    int mid = (lo + hi) / 2;
    int node = treeN;
    treeN = treeN + 1;
    treeVal[node] = text[mid];
    treeLeft[node] = buildTree(lo, mid - 1);
    treeRight[node] = buildTree(mid + 1, hi);
    return node;
}

int sumTree(int node) {
    if (node < 0) { return 0; }
    return treeVal[node] + sumTree(treeLeft[node]) + sumTree(treeRight[node]);
}

int main() {
    int pass;
    int idents = 0;
    int numbers = 0;
    int ops = 0;
    int checksum = 0;
    for (pass = 0; pass < %[2]d; pass = pass + 1) {
        gentext(pass * 7919 + 13);
        int i = 0;
        while (i < textLen) {
            int c = text[i];
            if (c >= 97 && c <= 122) {
                int key = 0;
                while (i < textLen && text[i] >= 97 && text[i] <= 122) {
                    key = key * 31 + text[i];
                    i = i + 1;
                }
                idents = idents + 1;
                checksum = checksum + hashInsert(key | 1);
            } else {
                if (c >= 48 && c <= 57) {
                    int v = 0;
                    while (i < textLen && text[i] >= 48 && text[i] <= 57) {
                        v = v * 10 + (text[i] - 48);
                        i = i + 1;
                    }
                    numbers = numbers + 1;
                    checksum = checksum ^ v;
                } else {
                    if (c == 43) { ops = ops + 1; }
                    i = i + 1;
                }
            }
        }
        treeN = 0;
        int root = buildTree(0, 255);
        checksum = checksum + sumTree(root);
    }
    print_str("cc1x ");
    print_int(idents); print_char(32);
    print_int(numbers); print_char(32);
    print_int(ops); print_char(32);
    print_int(checksum & 0xffff);
    print_char(10);
    return 0;
}
`, 1024*scale, 2*scale)
}

// eqntottx models eqntott (boolean equation to truth table conversion):
// the original spends nearly all its time in a quicksort whose comparator
// walks bit-vector truth tables word by word. The word-level compare loops
// across many independent vector pairs are what gave eqntott its high
// (782x) measured parallelism.
func eqntottxSource(scale int) string {
	return fmt.Sprintf(`
// eqntottx: bit-vector truth table sorting (models eqntott)
int vec[64][8];
int rank[64];
int perm[64];
int nvec = 64;

void genvecs(int seed) {
    int i;
    int j;
    for (i = 0; i < nvec; i = i + 1) {
        for (j = 0; j < 8; j = j + 1) {
            // Counter-based hash: table entries are independent, like
            // rows parsed from an input file.
            int h = (seed + i * 8 + j) * 0x9E3779B1;
            h = (h ^ (h >> 15)) & 0x7fffffff;
            vec[i][j] = h & 0xffff;
        }
        rank[i] = 0;
    }
}

// cmppt: lexicographic comparison of two truth tables (the original's
// hot comparator).
int cmppt(int a, int b) {
    int j;
    for (j = 0; j < 8; j = j + 1) {
        int x = vec[a][j];
        int y = vec[b][j];
        if (x < y) { return -1; }
        if (x > y) { return 1; }
    }
    return 0;
}

// Rank sort: every pairwise comparison is independent, which is where
// eqntott's high measured parallelism came from.
void sortvecs() {
    int i;
    int j;
    for (i = 0; i < nvec; i = i + 1) {
        for (j = 0; j < nvec; j = j + 1) {
            if (i != j) {
                int c = cmppt(j, i);
                if (c < 0) { rank[i] = rank[i] + 1; }
                else {
                    if (c == 0 && j < i) { rank[i] = rank[i] + 1; }
                }
            }
        }
    }
    for (i = 0; i < nvec; i = i + 1) {
        perm[rank[i]] = i;
    }
}

int main() {
    int pass;
    int dups = 0;
    int checksum = 0;
    for (pass = 0; pass < %d; pass = pass + 1) {
        genvecs(pass * 31 + 7);
        sortvecs();
        int i;
        for (i = 1; i < nvec; i = i + 1) {
            if (cmppt(perm[i-1], perm[i]) == 0) { dups = dups + 1; }
            checksum = checksum + vec[perm[i]][0];
        }
    }
    print_str("eqntottx ");
    print_int(dups); print_char(32);
    print_int(checksum & 0xffff);
    print_char(10);
    return 0;
}
`, 3*scale)
}

// espressox models espresso (PLA minimization): set operations — AND, OR,
// containment tests — over wide bit-vector "cubes". Row operations are
// independent across cube pairs, giving the moderate (133x) parallelism of
// the original, and almost everything lives in non-stack memory, which is
// why espresso needs memory renaming to reach it (Table 4).
func espressoxSource(scale int) string {
	return fmt.Sprintf(`
// espressox: cube cover operations (models espresso)
int cover[48][6];
int weight[48];
int ncubes = 48;
int tmp[6];
// Running cost total, kept in memory as the original kept its cost
// fields inside heap structures. The read-modify-write chain through this
// word is what memory renaming must break to expose the parallelism
// across minimization passes (the paper's espresso row in Table 4).
int gtotal = 0;

void gencover(int seed) {
    int i;
    int j;
    for (i = 0; i < ncubes; i = i + 1) {
        for (j = 0; j < 6; j = j + 1) {
            int h = (seed + i * 6 + j) * 0x9E3779B1;
            h = (h ^ (h >> 15)) & 0x7fffffff;
            cover[i][j] = h & 0x3ffff;
        }
        weight[i] = 0;
    }
}

// contains: does cube a cover cube b (a's bits are a superset)?
int contains(int a, int b) {
    int j;
    for (j = 0; j < 6; j = j + 1) {
        if ((cover[a][j] | cover[b][j]) != cover[a][j]) { return 0; }
    }
    return 1;
}

// distance: number of conflicting parts between two cubes. The popcount
// is open-coded (the original used macros), keeping this a leaf routine.
int distance(int a, int b) {
    int d = 0;
    int j;
    for (j = 0; j < 6; j = j + 1) {
        int x = cover[a][j] & cover[b][j];
        while (x != 0) {
            d = d + (x & 1);
            x = x >> 1;
        }
    }
    return d;
}

int pcov[16];
int pdist[16];

int main() {
    int pass;
    int npass = %d;
    for (pass = 0; pass < npass; pass = pass + 1) {
        gencover(pass * 131 + 3);
        int covered = 0;
        int i;
        int j;
        gtotal = 0;
        for (i = 0; i < ncubes; i = i + 1) {
            for (j = 0; j < ncubes; j = j + 1) {
                if (i != j) {
                    if (contains(i, j)) { covered = covered + 1; }
                    int dd = distance(i, j);
                    gtotal = gtotal + dd;
                    // Per-cube weights accumulate in memory, as the
                    // original's cost counters did.
                    weight[i] = weight[i] + dd;
                }
            }
        }
        // Consensus pass: merge adjacent cubes into tmp.
        for (i = 0; i + 1 < ncubes; i = i + 1) {
            for (j = 0; j < 6; j = j + 1) {
                tmp[j] = cover[i][j] | cover[i+1][j];
            }
            for (j = 0; j < 6; j = j + 1) {
                cover[i][j] = tmp[j] & 0x3ffff;
            }
        }
        int wmax = 0;
        for (i = 0; i < ncubes; i = i + 1) {
            if (weight[i] > wmax) { wmax = weight[i]; }
        }
        pcov[pass %% 16] = covered + wmax;
        pdist[pass %% 16] = gtotal;
    }
    int covered = 0;
    int totaldist = 0;
    int k;
    for (k = 0; k < 16; k = k + 1) {
        covered = covered + pcov[k];
        totaldist = totaldist + pdist[k];
    }
    print_str("espressox ");
    print_int(covered); print_char(32);
    print_int(totaldist & 0xffff);
    print_char(10);
    return 0;
}
`, 3*scale)
}

// xlispx models xlisp interpreting li-input.lsp: the paper found xlisp to
// be the least parallel benchmark (13x) because the Lisp program ran in a
// prog construct — an interpreted abstract serial machine whose virtual
// program counter is a recurrence the analyzer cannot remove. This
// workload is exactly that mechanism: a bytecode VM whose fetch-decode
// loop serializes on the virtual pc and stack pointer.
func xlispxSource(scale int) string {
	return fmt.Sprintf(`
// xlispx: stack-machine bytecode interpreter (models xlisp's prog loop)
int code[64];
int stk[64];
int mem[16];

// Opcodes: 1 PUSH k; 2 ADD; 3 SUB; 4 MUL; 5 LOAD a; 6 STORE a;
// 7 JNZ t (pops condition); 9 HALT.
void assemble(int n) {
    code[0] = 1;  code[1] = n;    // PUSH n
    code[2] = 6;  code[3] = 0;    // STORE m0      (counter)
    code[4] = 1;  code[5] = 0;    // PUSH 0
    code[6] = 6;  code[7] = 1;    // STORE m1      (sum)
    // loop:
    code[8] = 5;  code[9] = 0;    // LOAD m0
    code[10] = 5; code[11] = 0;   // LOAD m0
    code[12] = 4;                 // MUL
    code[13] = 5; code[14] = 1;   // LOAD m1
    code[15] = 2;                 // ADD
    code[16] = 6; code[17] = 1;   // STORE m1
    code[18] = 5; code[19] = 0;   // LOAD m0
    code[20] = 1; code[21] = 1;   // PUSH 1
    code[22] = 3;                 // SUB
    code[23] = 6; code[24] = 0;   // STORE m0
    code[25] = 5; code[26] = 0;   // LOAD m0
    code[27] = 7; code[28] = 8;   // JNZ loop
    code[29] = 9;                 // HALT
}

int interpret() {
    int pc = 0;
    int sp = 0;
    int steps = 0;
    int running = 1;
    while (running) {
        int op = code[pc];
        pc = pc + 1;
        steps = steps + 1;
        if (op == 1) {
            stk[sp] = code[pc];
            pc = pc + 1;
            sp = sp + 1;
        } else { if (op == 2) {
            sp = sp - 1;
            stk[sp-1] = stk[sp-1] + stk[sp];
        } else { if (op == 3) {
            sp = sp - 1;
            stk[sp-1] = stk[sp-1] - stk[sp];
        } else { if (op == 4) {
            sp = sp - 1;
            stk[sp-1] = stk[sp-1] * stk[sp];
        } else { if (op == 5) {
            stk[sp] = mem[code[pc]];
            pc = pc + 1;
            sp = sp + 1;
        } else { if (op == 6) {
            sp = sp - 1;
            mem[code[pc]] = stk[sp];
            pc = pc + 1;
        } else { if (op == 7) {
            sp = sp - 1;
            if (stk[sp] != 0) { pc = code[pc]; }
            else { pc = pc + 1; }
        } else {
            running = 0;
        } } } } } } }
    }
    return steps;
}

int main() {
    int pass;
    int steps = 0;
    int result = 0;
    for (pass = 0; pass < %d; pass = pass + 1) {
        assemble(300);
        steps = steps + interpret();
        result = mem[1];
    }
    print_str("xlispx ");
    print_int(steps); print_char(32);
    print_int(result);
    print_char(10);
    return 0;
}
`, scale)
}

func init() {
	register(&Workload{
		Name: "cc1x", Original: "cc1", Language: "C", BenchType: "Int",
		Description:  "scanner, symbol-table hashing and tree walking, as in a compiler front end",
		Source:       cc1xSource,
		ExpectOutput: "cc1x 1973 1498 783 10694\n",
	})
	register(&Workload{
		Name: "eqntottx", Original: "eqntott", Language: "C", BenchType: "Int",
		Description:  "bit-vector truth-table comparison sort (the original's cmppt/qsort hot loop)",
		Source:       eqntottxSource,
		ExpectOutput: "eqntottx 0 62515\n",
	})
	register(&Workload{
		Name: "espressox", Original: "espresso", Language: "C", BenchType: "Int",
		Description:  "set-cover bit-matrix operations over PLA cubes",
		Source:       espressoxSource,
		ExpectOutput: "espressox 4610 42648\n",
	})
	register(&Workload{
		Name: "xlispx", Original: "xlisp", Language: "C", BenchType: "Int",
		Description:  "bytecode interpreter whose virtual-PC recurrence serializes execution",
		Source:       xlispxSource,
		ExpectOutput: "xlispx 3605 9045050\n",
	})
}
