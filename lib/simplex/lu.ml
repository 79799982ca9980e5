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

(* Room for [n] entries in all, keeping the first [ilen] / [flen]. *)
let ireserve b n =
  if n > Array.length b.ia then begin
    let a = Array.make (max n (2 * Array.length b.ia)) 0 in
    Array.blit b.ia 0 a 0 b.ilen;
    b.ia <- a
  end

let freserve b n =
  if n > Array.length b.fa then begin
    let a = Array.make (max n (2 * Array.length b.fa)) 0. in
    Array.blit b.fa 0 a 0 b.flen;
    b.fa <- a
  end

(* Step [t] of the elimination pivots on row [prow.(t)] and basis
   position [pcol.(t)] with value [pval.(t)].  Its L column (the row
   multipliers it subtracts) and U row (the pivot row's entries in
   positions pivoted later) sit in [start.(t), start.(t+1)) of the
   [l_*] and [ur_*] buffers; [uc_*] holds U again by columns, indexed by
   basis position.  [lsteps] lists the steps with a nonempty L column,
   in order.  Eta [e] replaced position [e_pos.(e)] by a column whose
   transformed entries are [e_piv.(e)] there and the [e_idx]/[e_val]
   range elsewhere.

   The remaining fields are the elimination's workspace: the active
   submatrix by rows (positions and values) and by columns (rows), each
   entry holding its place in the other ([rcp]: a row entry's index in
   its column, [crp]: a column entry's index in its row), so a value is
   read from either side without a search; each column's largest
   magnitude while it holds ([cmax], negative once the column changes);
   the count buckets; and scatter marks.  Every array is sized for the
   largest [m] seen so far and reused by the next factorization, so a
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
  mutable rcp : int array array;
  mutable cidx : int array array;
  mutable crp : int array array;
  mutable cmax : float array;
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
    rcp = [||];
    cidx = [||];
    crp = [||];
    cmax = [||];
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
    let lines () = Array.init cap (fun _ -> Array.make 8 0) in
    lu.prow <- ints ();
    lu.pcol <- ints ();
    lu.pval <- Array.make cap 0.;
    lu.l_start <- Array.make (cap + 1) 0;
    lu.ur_start <- Array.make (cap + 1) 0;
    lu.uc_start <- Array.make (cap + 1) 0;
    lu.rlen <- ints ();
    lu.clen <- ints ();
    lu.ridx <- lines ();
    lu.rval <- Array.init cap (fun _ -> Array.make 8 0.);
    lu.rcp <- lines ();
    lu.cidx <- lines ();
    lu.crp <- lines ();
    lu.cmax <- Array.make cap 0.;
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

let grow_int (a : int array) = Array.append a (Array.make (Array.length a) 0)

(* Append entry (i, k, v) to row [i] and column [k]. *)
let add_entry lu i k v =
  let e = lu.rlen.(i) in
  if e = Array.length lu.ridx.(i) then begin
    lu.ridx.(i) <- grow_int lu.ridx.(i);
    lu.rval.(i) <- Array.append lu.rval.(i) (Array.make e 0.);
    lu.rcp.(i) <- grow_int lu.rcp.(i)
  end;
  let f = lu.clen.(k) in
  if f = Array.length lu.cidx.(k) then begin
    lu.cidx.(k) <- grow_int lu.cidx.(k);
    lu.crp.(k) <- grow_int lu.crp.(k)
  end;
  lu.ridx.(i).(e) <- k;
  lu.rval.(i).(e) <- v;
  lu.rcp.(i).(e) <- f;
  lu.cidx.(k).(f) <- i;
  lu.crp.(k).(f) <- e;
  lu.rlen.(i) <- e + 1;
  lu.clen.(k) <- f + 1;
  lu.cmax.(k) <- -1.

(* Remove entry [f] of column [k]'s pattern: its last entry takes the
   place.  The row side is the caller's. *)
let col_remove_at lu k f =
  let last = lu.clen.(k) - 1 in
  if f < last then begin
    let c = lu.cidx.(k) and cr = lu.crp.(k) in
    let i = c.(last) and e = cr.(last) in
    c.(f) <- i;
    cr.(f) <- e;
    lu.rcp.(i).(e) <- f
  end;
  lu.clen.(k) <- last;
  lu.cmax.(k) <- -1.

(* Remove entry [e] of row [i]: its last entry takes the place.  The
   column side is the caller's. *)
let row_remove_at lu i e =
  let last = lu.rlen.(i) - 1 in
  if e < last then begin
    let r = lu.ridx.(i) and rc = lu.rcp.(i) in
    let k = r.(last) and f = rc.(last) in
    r.(e) <- k;
    lu.rval.(i).(e) <- lu.rval.(i).(last);
    rc.(e) <- f;
    lu.crp.(k).(f) <- e
  end;
  lu.rlen.(i) <- last

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

let colmax lu k =
  let c = Array.unsafe_get lu.cmax k in
  if c >= 0. then c
  else begin
    let best = ref 0. in
    let ci = lu.cidx.(k) and cr = lu.crp.(k) and rval = lu.rval in
    for e = 0 to lu.clen.(k) - 1 do
      best := Float.max !best (abs_float (Array.unsafe_get rval ci.(e)).(cr.(e)))
    done;
    lu.cmax.(k) <- !best;
    !best
  end

(* The pivot of least Markowitz cost (r - 1)(c - 1) among entries at
   least [threshold] times their column's largest, searching columns and
   then rows in increasing count from [c0] and stopping [search_limit]
   lines after the first candidate, or as soon as no later line can be
   cheaper; a singleton line costs 0 and is taken at once.  Ties go to
   the larger magnitude, then to the first found.  Returns (row, column,
   lowest nonempty count). *)
let find_pivot lu c0 =
  let m = lu.m in
  let rval = lu.rval and rlen = lu.rlen and clen = lu.clen in
  let bi = ref (-1) and bk = ref (-1) and bcost = ref max_int and babs = ref 0. in
  let seen = ref 0 and c = ref c0 and low = ref (-1) in
  (try
     while !c <= m do
       let cc = !c in
       if !low < 0 && (lu.chead.(cc) >= 0 || lu.rhead.(cc) >= 0) then low := cc;
       let k = ref lu.chead.(cc) in
       while !k >= 0 do
         let kk = !k in
         let cm = colmax lu kk in
         let col = lu.cidx.(kk) and cr = lu.crp.(kk) in
         for e = 0 to cc - 1 do
           let i = col.(e) in
           let a = abs_float (Array.unsafe_get rval i).(cr.(e)) in
           if a > tiny && a >= threshold *. cm then begin
             let cost = (rlen.(i) - 1) * (cc - 1) in
             if cost < !bcost || (cost = !bcost && a > !babs) then begin
               bi := i;
               bk := kk;
               bcost := cost;
               babs := a
             end
           end
         done;
         incr seen;
         if !bi >= 0 && (!seen >= search_limit || !bcost <= (cc - 1) * (cc - 1)) then raise Exit;
         k := lu.cnext.(kk)
       done;
       let i = ref lu.rhead.(cc) in
       while !i >= 0 do
         let ii = !i in
         let r = lu.ridx.(ii) and rv = rval.(ii) in
         for e = 0 to cc - 1 do
           let k = r.(e) and a = abs_float rv.(e) in
           if a > tiny && a >= threshold *. colmax lu k then begin
             let cost = (cc - 1) * (clen.(k) - 1) in
             if cost < !bcost || (cost = !bcost && a > !babs) then begin
               bi := ii;
               bk := k;
               bcost := cost;
               babs := a
             end
           end
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
      let q = bidx.ilen in
      if q = Array.length bidx.ia then begin
        ireserve bidx (q + 1);
        freserve bval (q + 1)
      end;
      Array.unsafe_set bidx.ia q i;
      Array.unsafe_set bval.fa q v;
      bidx.ilen <- q + 1;
      bval.flen <- q + 1
    end
  in
  for k = 0 to m - 1 do
    bstart.(k) <- bidx.ilen;
    col k emit
  done;
  bstart.(m) <- bidx.ilen;
  let bi = bidx.ia and bv = bval.fa in
  let rstep = lu.rstep and cstep = lu.cstep in
  Array.fill rstep 0 m (-1);
  Array.fill cstep 0 m (-1);
  let s = ref 0 in
  for k = 0 to m - 1 do
    if bstart.(k + 1) - bstart.(k) = 1 then begin
      let i = bi.(bstart.(k)) and v = bv.(bstart.(k)) in
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
        let t = rstep.(bi.(q)) in
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
  ireserve lu.ur_idx ur_start.(s);
  freserve lu.ur_val ur_start.(s);
  let ur_idx = lu.ur_idx.ia and ur_val = lu.ur_val.fa in
  for k = 0 to m - 1 do
    if cstep.(k) < 0 then
      for q = bstart.(k) to bstart.(k + 1) - 1 do
        let t = rstep.(bi.(q)) in
        if t >= 0 then begin
          ur_idx.(wpos.(t)) <- k;
          ur_val.(wpos.(t)) <- bv.(q);
          wpos.(t) <- wpos.(t) + 1
        end
      done
  done;
  lu.ur_idx.ilen <- ur_start.(s);
  lu.ur_val.flen <- ur_start.(s);
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
        let i = bi.(q) in
        if rstep.(i) < 0 then add_entry lu i k bv.(q)
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
    let pidx = lu.ridx.(p) and pv = lu.rval.(p) and prc = lu.rcp.(p) and plen = rlen.(p) in
    let piv =
      let e = ref 0 in
      while pidx.(!e) <> q do
        incr e
      done;
      pv.(!e)
    in
    lu.prow.(t) <- p;
    lu.pcol.(t) <- q;
    lu.pval.(t) <- piv;
    unlink rhead rnext rprev p rlen.(p);
    unlink chead cnext cprev q clen.(q);
    (* the pivot row, minus the pivot, is U row t; its columns lose row p *)
    let nu = lu.ur_idx.ilen in
    ireserve lu.ur_idx (nu + plen);
    freserve lu.ur_val (nu + plen);
    let ur_idx = lu.ur_idx.ia and ur_val = lu.ur_val.fa in
    let u = ref nu in
    for e = 0 to plen - 1 do
      let k = pidx.(e) in
      if k <> q then begin
        ur_idx.(!u) <- k;
        ur_val.(!u) <- pv.(e);
        incr u;
        unlink chead cnext cprev k clen.(k);
        col_remove_at lu k prc.(e)
      end
    done;
    lu.ur_idx.ilen <- !u;
    lu.ur_val.flen <- !u;
    lu.ur_start.(t + 1) <- !u;
    (* eliminate column q from the other rows of its pattern *)
    let qcol = lu.cidx.(q) and qcr = lu.crp.(q) and qlen = clen.(q) in
    let nl = lu.l_idx.ilen in
    ireserve lu.l_idx (nl + qlen);
    freserve lu.l_val (nl + qlen);
    let l_idx = lu.l_idx.ia and l_val = lu.l_val.fa in
    let nl = ref nl in
    for e = 0 to qlen - 1 do
      let i = qcol.(e) in
      if i <> p then begin
        unlink rhead rnext rprev i rlen.(i);
        let f = qcr.(e) in
        let a = lu.rval.(i).(f) in
        row_remove_at lu i f;
        let l = a /. piv in
        l_idx.(!nl) <- i;
        l_val.(!nl) <- l;
        incr nl;
        let r = lu.ridx.(i) in
        for g = 0 to rlen.(i) - 1 do
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
            else add_entry lu i k (-.(l *. pv.(g)))
          end
        done;
        (* clear the marks and drop what cancelled *)
        let r = lu.ridx.(i) and rv = lu.rval.(i) and rc = lu.rcp.(i) in
        let g = ref 0 in
        while !g < rlen.(i) do
          let k = r.(!g) in
          wpos.(k) <- 0;
          if abs_float rv.(!g) <= drop then begin
            col_remove_at lu k rc.(!g);
            row_remove_at lu i !g
          end
          else incr g
        done;
        link rhead rnext rprev i rlen.(i);
        if rlen.(i) < !c0 then c0 := rlen.(i)
      end
    done;
    lu.l_idx.ilen <- !nl;
    lu.l_val.flen <- !nl;
    lu.l_start.(t + 1) <- !nl;
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
  (* U by columns, indexed by basis position: entry (row prow.(t),
     value) of U row t lands in the column of its position, in step
     order *)
  let nu = lu.ur_idx.ilen in
  let ur_idx = lu.ur_idx.ia and ur_val = lu.ur_val.fa and ur_start = lu.ur_start in
  let uc_start = lu.uc_start in
  Array.fill uc_start 0 (m + 1) 0;
  for q = 0 to nu - 1 do
    let k = ur_idx.(q) in
    uc_start.(k + 1) <- uc_start.(k + 1) + 1
  done;
  for k = 0 to m - 1 do
    uc_start.(k + 1) <- uc_start.(k + 1) + uc_start.(k);
    wpos.(k) <- uc_start.(k)
  done;
  ireserve lu.uc_idx nu;
  freserve lu.uc_val nu;
  let uc_idx = lu.uc_idx.ia and uc_val = lu.uc_val.fa in
  for t = 0 to m - 1 do
    let i = lu.prow.(t) in
    for q = ur_start.(t) to ur_start.(t + 1) - 1 do
      let k = ur_idx.(q) in
      let d = wpos.(k) in
      uc_idx.(d) <- i;
      uc_val.(d) <- ur_val.(q);
      wpos.(k) <- d + 1
    done
  done;
  lu.uc_idx.ilen <- nu;
  lu.uc_val.flen <- nu

let updates lu = lu.e_pos.ilen

(* An eta has at most [m - 1] off-pivot entries: room for them is made
   once, then they are stored without a growth check each. *)
let update lu r (alpha : float array) =
  ipush lu.e_pos r;
  fpush lu.e_piv alpha.(r);
  let len = lu.e_idx.ilen in
  ireserve lu.e_idx (len + lu.m);
  freserve lu.e_val (len + lu.m);
  let idx = lu.e_idx.ia and vals = lu.e_val.fa in
  let q = ref len in
  for i = 0 to lu.m - 1 do
    let a = Array.unsafe_get alpha i in
    if a <> 0. && i <> r then begin
      Array.unsafe_set idx !q i;
      Array.unsafe_set vals !q a;
      incr q
    end
  done;
  lu.e_idx.ilen <- !q;
  lu.e_val.flen <- !q;
  ipush lu.e_start !q

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
    let k = Array.unsafe_get pcol t in
    if v <> 0. then begin
      let xq = v /. Array.unsafe_get pval t in
      Array.unsafe_set x k xq;
      for q = Array.unsafe_get uc_start k to Array.unsafe_get uc_start (k + 1) - 1 do
        let i = Array.unsafe_get uc_idx q in
        Array.unsafe_set a i (Array.unsafe_get a i -. (Array.unsafe_get uc_val q *. xq))
      done
    end
    else Array.unsafe_set x k 0.
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
