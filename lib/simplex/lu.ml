exception Singular

(* Growable int / float buffers, reused across factorizations. *)
type ibuf = {
  mutable ia : int array;
  mutable ilen : int;
}

type fbuf = {
  mutable fa : float array;
  mutable flen : int;
}

let ibuf () = { ia = Array.make 16 0; ilen = 0 }
let fbuf () = { fa = Array.make 16 0.; flen = 0 }

let ipush b x =
  if b.ilen = Array.length b.ia then begin
    let a = Array.make (2 * b.ilen) 0 in
    Array.blit b.ia 0 a 0 b.ilen;
    b.ia <- a
  end;
  Array.unsafe_set b.ia b.ilen x;
  b.ilen <- b.ilen + 1

let fpush b x =
  if b.flen = Array.length b.fa then begin
    let a = Array.make (2 * b.flen) 0. in
    Array.blit b.fa 0 a 0 b.flen;
    b.fa <- a
  end;
  Array.unsafe_set b.fa b.flen x;
  b.flen <- b.flen + 1

(* Step [t] of the elimination pivots on row [prow.(t)] and basis
   position [pcol.(t)] with value [pval.(t)].  Its L column (the row
   multipliers it subtracts) and U row (the pivot row's entries in
   positions pivoted later) sit in [start.(t), start.(t+1)) of the
   [l_*] and [ur_*] buffers; [uc_*] holds U again by columns, indexed by
   the step of the column.  [lsteps] lists the steps with a nonempty L
   column, in order.  Eta [e] replaced position [e_pos.(e)] by a column
   whose transformed entries are [e_piv.(e)] there and the [e_idx]/[e_val]
   range elsewhere.

   The remaining fields are the elimination's workspace: the active
   submatrix by rows (values) and by columns (row patterns), the count
   buckets, and scatter marks.  Every array is sized for the largest
   [m] seen so far and reused by the next factorization, so a
   refactorization allocates nothing once the buffers have grown. *)
type t = {
  mutable m : int;
  mutable cap : int;
  mutable prow : int array;
  mutable pcol : int array;
  mutable pval : float array;
  lsteps : ibuf;
  mutable l_start : int array;
  l_idx : ibuf;
  l_val : fbuf;
  mutable ur_start : int array;
  ur_idx : ibuf;
  ur_val : fbuf;
  mutable uc_start : int array;
  uc_idx : ibuf;
  uc_val : fbuf;
  e_pos : ibuf;
  e_piv : fbuf;
  e_start : ibuf;
  e_idx : ibuf;
  e_val : fbuf;
  mutable rlen : int array;
  mutable clen : int array;
  mutable ridx : int array array;
  mutable rval : float array array;
  mutable cidx : int array array;
  mutable rhead : int array;
  mutable chead : int array;
  mutable rnext : int array;
  mutable rprev : int array;
  mutable cnext : int array;
  mutable cprev : int array;
  mutable wpos : int array;
  mutable rstep : int array;
  mutable cstep : int array;
  mutable bstart : int array;
  bidx : ibuf;
  bval : fbuf;
}

let create () =
  let e_start = ibuf () in
  ipush e_start 0;
  {
    m = 0;
    cap = 0;
    prow = [||];
    pcol = [||];
    pval = [||];
    lsteps = ibuf ();
    l_start = [| 0 |];
    l_idx = ibuf ();
    l_val = fbuf ();
    ur_start = [| 0 |];
    ur_idx = ibuf ();
    ur_val = fbuf ();
    uc_start = [| 0 |];
    uc_idx = ibuf ();
    uc_val = fbuf ();
    e_pos = ibuf ();
    e_piv = fbuf ();
    e_start;
    e_idx = ibuf ();
    e_val = fbuf ();
    rlen = [||];
    clen = [||];
    ridx = [||];
    rval = [||];
    cidx = [||];
    rhead = [| -1 |];
    chead = [| -1 |];
    rnext = [||];
    rprev = [||];
    cnext = [||];
    cprev = [||];
    wpos = [||];
    rstep = [||];
    cstep = [||];
    bstart = [| 0 |];
    bidx = ibuf ();
    bval = fbuf ();
  }

(* Size every per-line array for [m] lines. *)
let reserve lu m =
  if m > lu.cap then begin
    let cap = max m (2 * lu.cap) in
    let ints () = Array.make cap 0 in
    lu.prow <- ints ();
    lu.pcol <- ints ();
    lu.pval <- Array.make cap 0.;
    lu.l_start <- Array.make (cap + 1) 0;
    lu.ur_start <- Array.make (cap + 1) 0;
    lu.uc_start <- Array.make (cap + 1) 0;
    lu.rlen <- ints ();
    lu.clen <- ints ();
    lu.ridx <- Array.init cap (fun _ -> Array.make 8 0);
    lu.rval <- Array.init cap (fun _ -> Array.make 8 0.);
    lu.cidx <- Array.init cap (fun _ -> Array.make 8 0);
    lu.rhead <- Array.make (cap + 1) (-1);
    lu.chead <- Array.make (cap + 1) (-1);
    lu.rnext <- ints ();
    lu.rprev <- ints ();
    lu.cnext <- ints ();
    lu.cprev <- ints ();
    lu.wpos <- ints ();
    lu.rstep <- ints ();
    lu.cstep <- ints ();
    lu.bstart <- Array.make (cap + 1) 0;
    lu.cap <- cap
  end;
  lu.m <- m;
  lu.lsteps.ilen <- 0;
  lu.l_idx.ilen <- 0;
  lu.l_val.flen <- 0;
  lu.ur_idx.ilen <- 0;
  lu.ur_val.flen <- 0;
  lu.uc_idx.ilen <- 0;
  lu.uc_val.flen <- 0;
  lu.e_pos.ilen <- 0;
  lu.e_piv.flen <- 0;
  lu.e_start.ilen <- 1;
  lu.e_idx.ilen <- 0;
  lu.e_val.flen <- 0

let diagonal lu d =
  let m = Array.length d in
  reserve lu m;
  for i = 0 to m - 1 do
    lu.prow.(i) <- i;
    lu.pcol.(i) <- i;
    lu.pval.(i) <- d.(i);
    lu.l_start.(i + 1) <- 0;
    lu.ur_start.(i + 1) <- 0;
    lu.uc_start.(i + 1) <- 0
  done

let threshold = 0.1 (* relative pivot size within its column *)
let tiny = 1e-11 (* absolute: smaller pivots make the basis singular *)
let drop = 1e-14 (* absolute: fill below this is dropped *)
let search_limit = 4 (* candidate lines examined once a pivot is found *)

let row_push lu i k v =
  let l = lu.rlen.(i) in
  if l = Array.length lu.ridx.(i) then begin
    let a = Array.make (2 * l) 0 and b = Array.make (2 * l) 0. in
    Array.blit lu.ridx.(i) 0 a 0 l;
    Array.blit lu.rval.(i) 0 b 0 l;
    lu.ridx.(i) <- a;
    lu.rval.(i) <- b
  end;
  lu.ridx.(i).(l) <- k;
  lu.rval.(i).(l) <- v;
  lu.rlen.(i) <- l + 1

let col_push lu k i =
  let l = lu.clen.(k) in
  if l = Array.length lu.cidx.(k) then begin
    let a = Array.make (2 * l) 0 in
    Array.blit lu.cidx.(k) 0 a 0 l;
    lu.cidx.(k) <- a
  end;
  lu.cidx.(k).(l) <- i;
  lu.clen.(k) <- l + 1

let col_remove lu k i =
  let c = lu.cidx.(k) and l = lu.clen.(k) - 1 in
  let e = ref 0 in
  while c.(!e) <> i do
    incr e
  done;
  c.(!e) <- c.(l);
  lu.clen.(k) <- l

(* Count buckets: [head.(c)] starts the chain of lines with [c] active
   entries.  An active line with none makes the matrix singular. *)
let link head next prev x c =
  if c = 0 then raise Singular;
  next.(x) <- head.(c);
  prev.(x) <- -1;
  if head.(c) >= 0 then prev.(head.(c)) <- x;
  head.(c) <- x

let unlink head next prev x c =
  if prev.(x) >= 0 then next.(prev.(x)) <- next.(x) else head.(c) <- next.(x);
  if next.(x) >= 0 then prev.(next.(x)) <- prev.(x)

let value lu i k =
  let r = lu.ridx.(i) in
  let e = ref 0 in
  while r.(!e) <> k do
    incr e
  done;
  lu.rval.(i).(!e)

let colmax lu k =
  let best = ref 0. in
  let c = lu.cidx.(k) in
  for e = 0 to lu.clen.(k) - 1 do
    best := Float.max !best (abs_float (value lu c.(e) k))
  done;
  !best

(* The pivot of least Markowitz cost (r - 1)(c - 1) among entries at
   least [threshold] times their column's largest, searching columns and
   then rows in increasing count from [c0] and stopping [search_limit]
   lines after the first candidate, or as soon as no later line can be
   cheaper; a singleton line costs 0 and is taken at once.  Returns
   (row, column, lowest nonempty count). *)
let find_pivot lu c0 =
  let m = lu.m in
  let bi = ref (-1) and bk = ref (-1) and bcost = ref max_int and babs = ref 0. in
  let consider i k a cost =
    let a = abs_float a in
    if cost < !bcost || (cost = !bcost && a > !babs) then begin
      bi := i;
      bk := k;
      bcost := cost;
      babs := a
    end
  in
  let seen = ref 0 and c = ref c0 and low = ref (-1) in
  (try
     while !c <= m do
       let cc = !c in
       if !low < 0 && (lu.chead.(cc) >= 0 || lu.rhead.(cc) >= 0) then low := cc;
       let k = ref lu.chead.(cc) in
       while !k >= 0 do
         let kk = !k in
         let cm = colmax lu kk in
         let col = lu.cidx.(kk) in
         for e = 0 to cc - 1 do
           let i = col.(e) in
           let a = value lu i kk in
           if abs_float a > tiny && abs_float a >= threshold *. cm then
             consider i kk a ((lu.rlen.(i) - 1) * (cc - 1))
         done;
         incr seen;
         if !bi >= 0 && (!seen >= search_limit || !bcost <= (cc - 1) * (cc - 1)) then raise Exit;
         k := lu.cnext.(kk)
       done;
       let i = ref lu.rhead.(cc) in
       while !i >= 0 do
         let ii = !i in
         for e = 0 to cc - 1 do
           let k = lu.ridx.(ii).(e) and a = lu.rval.(ii).(e) in
           if abs_float a > tiny && abs_float a >= threshold *. colmax lu k then
             consider ii k a ((cc - 1) * (lu.clen.(k) - 1))
         done;
         incr seen;
         if !bi >= 0 && (!seen >= search_limit || !bcost <= (cc - 1) * cc) then raise Exit;
         i := lu.rnext.(ii)
       done;
       incr c
     done
   with Exit -> ());
  if !bi < 0 then raise Singular;
  (!bi, !bk, max 1 !low)

(* Singleton columns (slack and artificial columns, mostly) are pivoted
   first, each on its row, taking no L column and leaving their rows'
   other entries as U rows; then right-looking Gaussian elimination runs
   on the active submatrix left, the nucleus.  [col k emit] calls [emit
   i v] for each entry of basis column [k] (no row repeated). *)
let factor lu m (col : int -> (int -> float -> unit) -> unit) =
  reserve lu m;
  let bidx = lu.bidx and bval = lu.bval and bstart = lu.bstart in
  bidx.ilen <- 0;
  bval.flen <- 0;
  let emit i v =
    if v <> 0. then begin
      ipush bidx i;
      fpush bval v
    end
  in
  for k = 0 to m - 1 do
    bstart.(k) <- bidx.ilen;
    col k emit
  done;
  bstart.(m) <- bidx.ilen;
  let rstep = lu.rstep and cstep = lu.cstep in
  Array.fill rstep 0 m (-1);
  Array.fill cstep 0 m (-1);
  let s = ref 0 in
  for k = 0 to m - 1 do
    if bstart.(k + 1) - bstart.(k) = 1 then begin
      let i = bidx.ia.(bstart.(k)) and v = bval.fa.(bstart.(k)) in
      if rstep.(i) < 0 && abs_float v > tiny then begin
        lu.prow.(!s) <- i;
        lu.pcol.(!s) <- k;
        lu.pval.(!s) <- v;
        rstep.(i) <- !s;
        cstep.(k) <- !s;
        incr s
      end
    end
  done;
  let s = !s in
  (* U rows of the singleton steps, by counting sort over the other
     columns' entries in their rows *)
  let ur_start = lu.ur_start in
  Array.fill ur_start 0 (s + 1) 0;
  for k = 0 to m - 1 do
    if cstep.(k) < 0 then
      for q = bstart.(k) to bstart.(k + 1) - 1 do
        let t = rstep.(bidx.ia.(q)) in
        if t >= 0 then ur_start.(t + 1) <- ur_start.(t + 1) + 1
      done
  done;
  for t = 0 to s - 1 do
    ur_start.(t + 1) <- ur_start.(t + 1) + ur_start.(t)
  done;
  let wpos = lu.wpos in
  for t = 0 to s - 1 do
    wpos.(t) <- ur_start.(t)
  done;
  for _ = 1 to ur_start.(s) do
    ipush lu.ur_idx 0;
    fpush lu.ur_val 0.
  done;
  for k = 0 to m - 1 do
    if cstep.(k) < 0 then
      for q = bstart.(k) to bstart.(k + 1) - 1 do
        let t = rstep.(bidx.ia.(q)) in
        if t >= 0 then begin
          lu.ur_idx.ia.(wpos.(t)) <- k;
          lu.ur_val.fa.(wpos.(t)) <- bval.fa.(q);
          wpos.(t) <- wpos.(t) + 1
        end
      done
  done;
  for t = 0 to s - 1 do
    lu.l_start.(t + 1) <- 0
  done;
  (* the nucleus *)
  let rlen = lu.rlen and clen = lu.clen in
  Array.fill rlen 0 m 0;
  Array.fill clen 0 m 0;
  for k = 0 to m - 1 do
    if cstep.(k) < 0 then
      for q = bstart.(k) to bstart.(k + 1) - 1 do
        let i = bidx.ia.(q) in
        if rstep.(i) < 0 then begin
          row_push lu i k bval.fa.(q);
          col_push lu k i
        end
      done
  done;
  let rhead = lu.rhead and chead = lu.chead in
  let rnext = lu.rnext and rprev = lu.rprev and cnext = lu.cnext and cprev = lu.cprev in
  Array.fill rhead 0 (m + 1) (-1);
  Array.fill chead 0 (m + 1) (-1);
  for i = m - 1 downto 0 do
    if rstep.(i) < 0 then link rhead rnext rprev i rlen.(i)
  done;
  for k = m - 1 downto 0 do
    if cstep.(k) < 0 then link chead cnext cprev k clen.(k)
  done;
  Array.fill wpos 0 m 0;
  let c0 = ref 1 in
  for t = s to m - 1 do
    let p, q, low = find_pivot lu !c0 in
    c0 := low;
    let piv = value lu p q in
    lu.prow.(t) <- p;
    lu.pcol.(t) <- q;
    lu.pval.(t) <- piv;
    unlink rhead rnext rprev p rlen.(p);
    unlink chead cnext cprev q clen.(q);
    (* the pivot row, minus the pivot, is U row t; its columns lose row p *)
    let pidx = lu.ridx.(p) and pv = lu.rval.(p) and plen = rlen.(p) in
    for e = 0 to plen - 1 do
      let k = pidx.(e) in
      if k <> q then begin
        ipush lu.ur_idx k;
        fpush lu.ur_val pv.(e);
        unlink chead cnext cprev k clen.(k);
        col_remove lu k p
      end
    done;
    lu.ur_start.(t + 1) <- lu.ur_idx.ilen;
    (* eliminate column q from the other rows of its pattern *)
    let qcol = lu.cidx.(q) in
    for e = 0 to clen.(q) - 1 do
      let i = qcol.(e) in
      if i <> p then begin
        unlink rhead rnext rprev i rlen.(i);
        let r = lu.ridx.(i) and rv = lu.rval.(i) in
        let f = ref 0 in
        while r.(!f) <> q do
          incr f
        done;
        let a = rv.(!f) in
        let last = rlen.(i) - 1 in
        r.(!f) <- r.(last);
        rv.(!f) <- rv.(last);
        rlen.(i) <- last;
        let l = a /. piv in
        ipush lu.l_idx i;
        fpush lu.l_val l;
        for g = 0 to last - 1 do
          wpos.(r.(g)) <- g + 1
        done;
        for g = 0 to plen - 1 do
          let k = pidx.(g) in
          if k <> q then begin
            let w = wpos.(k) in
            if w > 0 then begin
              (* a fill-in may have moved the row *)
              let rv = lu.rval.(i) in
              rv.(w - 1) <- rv.(w - 1) -. (l *. pv.(g))
            end
            else begin
              row_push lu i k (-.(l *. pv.(g)));
              col_push lu k i
            end
          end
        done;
        (* clear the marks and drop what cancelled *)
        let g = ref 0 in
        while !g < rlen.(i) do
          let r = lu.ridx.(i) and rv = lu.rval.(i) in
          let k = r.(!g) in
          wpos.(k) <- 0;
          if abs_float rv.(!g) <= drop then begin
            let last = rlen.(i) - 1 in
            r.(!g) <- r.(last);
            rv.(!g) <- rv.(last);
            rlen.(i) <- last;
            col_remove lu k i
          end
          else incr g
        done;
        link rhead rnext rprev i rlen.(i);
        if rlen.(i) < !c0 then c0 := rlen.(i)
      end
    done;
    lu.l_start.(t + 1) <- lu.l_idx.ilen;
    if lu.l_start.(t + 1) > lu.l_start.(t) then ipush lu.lsteps t;
    clen.(q) <- 0;
    for e = 0 to plen - 1 do
      let k = pidx.(e) in
      if k <> q then begin
        link chead cnext cprev k clen.(k);
        if clen.(k) < !c0 then c0 := clen.(k)
      end
    done
  done;
  (* U by columns: entry (row prow.(t), value) of U row t lands in the
     column of the step that pivoted its position; [wpos] maps positions
     to steps *)
  let step_of = wpos in
  for t = 0 to m - 1 do
    step_of.(lu.pcol.(t)) <- t
  done;
  let nu = lu.ur_idx.ilen in
  let uc_start = lu.uc_start in
  Array.fill uc_start 0 (m + 1) 0;
  for q = 0 to nu - 1 do
    let s = step_of.(lu.ur_idx.ia.(q)) in
    uc_start.(s + 1) <- uc_start.(s + 1) + 1
  done;
  for s = 0 to m - 1 do
    uc_start.(s + 1) <- uc_start.(s + 1) + uc_start.(s)
  done;
  (* fill from the back of each column, with [rlen] as the cursor *)
  for s = 0 to m - 1 do
    rlen.(s) <- uc_start.(s + 1)
  done;
  for _ = 1 to nu do
    ipush lu.uc_idx 0;
    fpush lu.uc_val 0.
  done;
  for t = m - 1 downto 0 do
    for q = lu.ur_start.(t + 1) - 1 downto lu.ur_start.(t) do
      let s = step_of.(lu.ur_idx.ia.(q)) in
      let d = rlen.(s) - 1 in
      lu.uc_idx.ia.(d) <- lu.prow.(t);
      lu.uc_val.fa.(d) <- lu.ur_val.fa.(q);
      rlen.(s) <- d
    done
  done

let updates lu = lu.e_pos.ilen

let update lu r (alpha : float array) =
  ipush lu.e_pos r;
  fpush lu.e_piv alpha.(r);
  for i = 0 to lu.m - 1 do
    let a = Array.unsafe_get alpha i in
    if a <> 0. && i <> r then begin
      ipush lu.e_idx i;
      fpush lu.e_val a
    end
  done;
  ipush lu.e_start lu.e_idx.ilen

(* B x = a: L, then U by columns, then the etas in order.  [a] is by
   row and is overwritten; [x] is by basis position. *)
let ftran lu (a : float array) (x : float array) =
  let l_idx = lu.l_idx.ia and l_val = lu.l_val.fa and l_start = lu.l_start in
  let prow = lu.prow and pcol = lu.pcol and pval = lu.pval in
  for s = 0 to lu.lsteps.ilen - 1 do
    let t = Array.unsafe_get lu.lsteps.ia s in
    let v = Array.unsafe_get a (Array.unsafe_get prow t) in
    if v <> 0. then
      for q = Array.unsafe_get l_start t to Array.unsafe_get l_start (t + 1) - 1 do
        let i = Array.unsafe_get l_idx q in
        Array.unsafe_set a i (Array.unsafe_get a i -. (Array.unsafe_get l_val q *. v))
      done
  done;
  let uc_idx = lu.uc_idx.ia and uc_val = lu.uc_val.fa and uc_start = lu.uc_start in
  for t = lu.m - 1 downto 0 do
    let v = Array.unsafe_get a (Array.unsafe_get prow t) in
    if v <> 0. then begin
      let xq = v /. Array.unsafe_get pval t in
      Array.unsafe_set x (Array.unsafe_get pcol t) xq;
      for q = Array.unsafe_get uc_start t to Array.unsafe_get uc_start (t + 1) - 1 do
        let i = Array.unsafe_get uc_idx q in
        Array.unsafe_set a i (Array.unsafe_get a i -. (Array.unsafe_get uc_val q *. xq))
      done
    end
    else Array.unsafe_set x (Array.unsafe_get pcol t) 0.
  done;
  let e_idx = lu.e_idx.ia and e_val = lu.e_val.fa and e_start = lu.e_start.ia in
  let e_pos = lu.e_pos.ia and e_piv = lu.e_piv.fa in
  for e = 0 to lu.e_pos.ilen - 1 do
    let r = Array.unsafe_get e_pos e in
    let xr = Array.unsafe_get x r /. Array.unsafe_get e_piv e in
    Array.unsafe_set x r xr;
    if xr <> 0. then
      for q = Array.unsafe_get e_start e to Array.unsafe_get e_start (e + 1) - 1 do
        let i = Array.unsafe_get e_idx q in
        Array.unsafe_set x i (Array.unsafe_get x i -. (Array.unsafe_get e_val q *. xr))
      done
  done

(* y B = c: the etas last to first, then U transposed by rows, then L
   transposed.  [c] is by basis position and is overwritten; [y] is by
   row. *)
let btran lu (c : float array) (y : float array) =
  let e_idx = lu.e_idx.ia and e_val = lu.e_val.fa and e_start = lu.e_start.ia in
  let e_pos = lu.e_pos.ia and e_piv = lu.e_piv.fa in
  for e = lu.e_pos.ilen - 1 downto 0 do
    let r = Array.unsafe_get e_pos e in
    let s = ref (Array.unsafe_get c r) in
    for q = Array.unsafe_get e_start e to Array.unsafe_get e_start (e + 1) - 1 do
      s := !s -. (Array.unsafe_get e_val q *. Array.unsafe_get c (Array.unsafe_get e_idx q))
    done;
    Array.unsafe_set c r (!s /. Array.unsafe_get e_piv e)
  done;
  let ur_idx = lu.ur_idx.ia and ur_val = lu.ur_val.fa and ur_start = lu.ur_start in
  let prow = lu.prow and pcol = lu.pcol and pval = lu.pval in
  for t = 0 to lu.m - 1 do
    let v = Array.unsafe_get c (Array.unsafe_get pcol t) in
    if v <> 0. then begin
      let w = v /. Array.unsafe_get pval t in
      Array.unsafe_set y (Array.unsafe_get prow t) w;
      for q = Array.unsafe_get ur_start t to Array.unsafe_get ur_start (t + 1) - 1 do
        let k = Array.unsafe_get ur_idx q in
        Array.unsafe_set c k (Array.unsafe_get c k -. (Array.unsafe_get ur_val q *. w))
      done
    end
    else Array.unsafe_set y (Array.unsafe_get prow t) 0.
  done;
  let l_idx = lu.l_idx.ia and l_val = lu.l_val.fa and l_start = lu.l_start in
  for s = lu.lsteps.ilen - 1 downto 0 do
    let t = Array.unsafe_get lu.lsteps.ia s in
    let p = Array.unsafe_get prow t in
    let acc = ref (Array.unsafe_get y p) in
    for q = Array.unsafe_get l_start t to Array.unsafe_get l_start (t + 1) - 1 do
      acc := !acc -. (Array.unsafe_get l_val q *. Array.unsafe_get y (Array.unsafe_get l_idx q))
    done;
    Array.unsafe_set y p !acc
  done
