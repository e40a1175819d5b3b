type 'a result =
  | Optimal of { objective : 'a; solution : 'a array; duals : 'a array }
  | Infeasible
  | Unbounded

(* Steps of the pivot loop, counted on every exit path. A public entry
   point reports its count to the profile once, when it returns or raises
   ([metered]); {!Exact} drops the count of a word attempt it abandons. *)
type meter = { mutable pivots : int }

let metered f =
  let m = { pivots = 0 } in
  match f m with
  | r ->
    Spp_obs.Profile.add_pivots m.pivots;
    r
  | exception e ->
    Spp_obs.Profile.add_pivots m.pivots;
    raise e

module Make (F : Field.S) = struct
  (* Tableau, stored densely and updated only on its nonzeros:
       rows    : m arrays of capacity >= cols+1; slot [cols] is the rhs,
                 slots above it are spare room for appended columns.
       basis   : basis.(i) is the variable basic in row i.
       objrow  : reduced costs, slot [cols] holds -z; same capacity rule.
     Column layout: [0,n) model vars, [n, art_start) slack/surplus,
     [art_start, cols) artificials — and, for a warm-started restricted
     master, appended columns at [orig_cols, cols).

     Every update skips the entries [F.is_zero] holds for, where the dense
     update would compute x - f*0 or 0/p. Over the exact field those are
     identities (zero has the one form 0/1), so the tableau, the pivot
     choices, the dropped rows and the duals are those of the dense
     {!Reference}, entry for entry. *)

  type tableau = {
    mutable rows : F.t array array;
    mutable basis : int array;
    mutable objrow : F.t array;
    mutable cols : int;
    art_start : int;
    nvars : int;
  }

  let pivot t r c =
    let prow = t.rows.(r) in
    let pv = prow.(c) in
    (* The pivot row's support: the only columns any row can change in. *)
    let support = Array.make (t.cols + 1) 0 in
    let len = ref 0 in
    for j = 0 to t.cols do
      if not (F.is_zero prow.(j)) then begin
        support.(!len) <- j;
        incr len
      end
    done;
    let len = !len in
    for s = 0 to len - 1 do
      let j = support.(s) in
      prow.(j) <- F.div prow.(j) pv
    done;
    let eliminate row =
      let factor = row.(c) in
      if not (F.is_zero factor) then
        for s = 0 to len - 1 do
          let j = support.(s) in
          row.(j) <- F.sub row.(j) (F.mul factor prow.(j))
        done
    in
    Array.iteri (fun i row -> if i <> r then eliminate row) t.rows;
    eliminate t.objrow;
    t.basis.(r) <- c

  (* Pricing. Dantzig's rule (most negative reduced cost) is fast but can
     cycle on degenerate bases; Bland's rule (smallest eligible index)
     terminates always. We run Dantzig while progress is made and fall back
     to Bland permanently after a run of degenerate pivots — a standard,
     still-terminating hybrid. Leaving row: min ratio, ties by smallest
     basis index (part of Bland's argument). [enter_ok] restricts the
     entering candidates (phase 2 bars artificials; a restricted master
     additionally admits its appended columns). *)
  let degenerate_limit = 40

  let iterate t ~enter_ok ~max_iters meter =
    let iters = ref 0 in
    let degenerate_run = ref 0 in
    let rec step () =
      incr iters;
      meter.pivots <- meter.pivots + 1;
      if !iters > max_iters then failwith "Simplex: iteration limit exceeded";
      let entering = ref (-1) in
      if !degenerate_run < degenerate_limit then begin
        (* Dantzig: most negative reduced cost. *)
        let best = ref F.zero in
        for j = 0 to t.cols - 1 do
          if enter_ok j && F.compare t.objrow.(j) !best < 0 then begin
            best := t.objrow.(j);
            entering := j
          end
        done
      end
      else begin
        let j = ref 0 in
        while !entering < 0 && !j < t.cols do
          if enter_ok !j && F.compare t.objrow.(!j) F.zero < 0 then entering := !j;
          incr j
        done
      end;
      if !entering < 0 then `Optimal
      else begin
        let e = !entering in
        let leave = ref (-1) in
        let best_ratio = ref F.zero in
        Array.iteri
          (fun i row ->
            if F.compare row.(e) F.zero > 0 then begin
              let ratio = F.div row.(t.cols) row.(e) in
              if
                !leave < 0
                || F.compare ratio !best_ratio < 0
                || (F.compare ratio !best_ratio = 0 && t.basis.(i) < t.basis.(!leave))
              then begin
                leave := i;
                best_ratio := ratio
              end
            end)
          t.rows;
        if !leave < 0 then `Unbounded
        else begin
          if F.is_zero !best_ratio then incr degenerate_run else degenerate_run := 0;
          pivot t !leave e;
          step ()
        end
      end
    in
    step ()

  (* Reduced-cost row for cost vector [cost] (length cols) under the current
     basis: r_j = c_j - sum_i c_{basis i} T[i][j];   slot cols = -z. *)
  let set_objective_row t cost =
    for j = 0 to t.cols do
      t.objrow.(j) <- (if j < t.cols then cost.(j) else F.zero)
    done;
    Array.iteri
      (fun i row ->
        let cb = cost.(t.basis.(i)) in
        if not (F.is_zero cb) then
          for j = 0 to t.cols do
            let x = row.(j) in
            if not (F.is_zero x) then t.objrow.(j) <- F.sub t.objrow.(j) (F.mul cb x)
          done)
      t.rows

  (* Everything phase 2 (and a warm-started master) needs to keep going
     after phase 1: the tableau plus the dual-recovery bookkeeping. *)
  type prepared = {
    tab : tableau;
    m : int;  (* original constraint count, including dropped rows *)
    dual_col : int array;
    dual_sign : int array;
    dropped : (int, unit) Hashtbl.t;
  }

  (* Build the tableau from [model] and run phase 1 (when artificials are
     needed), driving artificials out of the basis and dropping redundant
     rows. Returns a feasible prepared tableau or [`Infeasible]. *)
  let prepare model ~max_iters meter =
    let n = Model.num_vars model in
    let constrs = Array.of_list (Model.constraints model) in
    let m = Array.length constrs in
    (* Normalise every row to rhs >= 0 and count auxiliary columns. *)
    let slack_count = ref 0 and art_count = ref 0 in
    let norm =
      Array.map
        (fun (_, terms, op, rhs) ->
          let flip = Spp_num.Rat.sign rhs < 0 in
          let terms = if flip then List.map (fun (v, c) -> (v, Spp_num.Rat.neg c)) terms else terms in
          let rhs = if flip then Spp_num.Rat.neg rhs else rhs in
          let op = match (op, flip) with
            | Model.Eq, _ -> Model.Eq
            | Model.Le, false | Model.Ge, true -> Model.Le
            | Model.Ge, false | Model.Le, true -> Model.Ge
          in
          (match op with
           | Model.Le -> incr slack_count
           | Model.Ge -> incr slack_count; incr art_count
           | Model.Eq -> incr art_count);
          (terms, op, rhs, flip))
        constrs
    in
    let art_start = n + !slack_count in
    let cols = art_start + !art_count in
    let rows = Array.init m (fun _ -> Array.make (cols + 1) F.zero) in
    let basis = Array.make m 0 in
    let next_slack = ref n and next_art = ref art_start in
    (* For dual recovery: a column whose original entries were +e_i (the
       slack for Le, the artificial for Ge/Eq), so that at optimality the
       normalised dual is -(its reduced cost); [dual_sign] undoes the rhs
       flip. *)
    let dual_col = Array.make m 0 in
    let dual_sign = Array.make m 1 in
    Array.iteri
      (fun i (terms, op, rhs, flipped) ->
        let row = rows.(i) in
        List.iter (fun (v, c) -> row.(v) <- F.add row.(v) (F.of_rat c)) terms;
        row.(cols) <- F.of_rat rhs;
        dual_sign.(i) <- (if flipped then -1 else 1);
        (match op with
         | Model.Le ->
           row.(!next_slack) <- F.one;
           basis.(i) <- !next_slack;
           dual_col.(i) <- !next_slack;
           incr next_slack
         | Model.Ge ->
           row.(!next_slack) <- F.neg F.one;
           incr next_slack;
           row.(!next_art) <- F.one;
           basis.(i) <- !next_art;
           dual_col.(i) <- !next_art;
           incr next_art
         | Model.Eq ->
           row.(!next_art) <- F.one;
           basis.(i) <- !next_art;
           dual_col.(i) <- !next_art;
           incr next_art))
      norm;
    let t = { rows; basis; objrow = Array.make (cols + 1) F.zero; cols; art_start; nvars = n } in
    let dropped = Hashtbl.create 4 in
    let feasible = ref true in
    if !art_count > 0 then begin
      (* Phase 1: minimise the sum of artificial variables. *)
      let cost = Array.make cols F.zero in
      for j = art_start to cols - 1 do
        cost.(j) <- F.one
      done;
      set_objective_row t cost;
      (match iterate t ~enter_ok:(fun _ -> true) ~max_iters meter with
       | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
       | `Optimal -> ());
      let z1 = F.neg t.objrow.(t.cols) in
      if F.compare z1 F.zero > 0 then feasible := false
      else begin
        (* Drive artificials out of the basis; drop redundant rows. *)
        let keep = ref [] in
        Array.iteri
          (fun i row ->
            if t.basis.(i) >= art_start then begin
              let piv = ref (-1) in
              for j = 0 to art_start - 1 do
                if !piv < 0 && not (F.is_zero row.(j)) then piv := j
              done;
              if !piv >= 0 then begin
                pivot t i !piv;
                keep := i :: !keep
              end
              (* else: all-zero structural row => linearly dependent, drop *)
            end
            else keep := i :: !keep)
          t.rows;
        let keep = List.sort compare !keep in
        Array.iteri (fun i _ -> if not (List.mem i keep) then Hashtbl.replace dropped i ()) t.rows;
        t.rows <- Array.of_list (List.map (fun i -> t.rows.(i)) keep);
        t.basis <- Array.of_list (List.map (fun i -> t.basis.(i)) keep)
      end
    end;
    if !feasible then `Feasible { tab = t; m; dual_col; dual_sign; dropped } else `Infeasible

  (* Phase-2 cost vector of the model, over the tableau's columns. *)
  let model_cost model t =
    let cost = Array.make t.cols F.zero in
    List.iter (fun (v, c) -> cost.(v) <- F.add cost.(v) (F.of_rat c)) (Model.objective model);
    cost

  (* Duals: for constraint i with auxiliary column j whose original entries
     were +e_i, the reduced cost is r_j = -y_i, so y_i = -r_j, sign-adjusted
     for flipped rows. Dropped (redundant) rows get dual 0. *)
  let extract_duals p =
    let t = p.tab in
    let duals = Array.make p.m F.zero in
    for i = 0 to p.m - 1 do
      if not (Hashtbl.mem p.dropped i) then begin
        let y = F.neg t.objrow.(p.dual_col.(i)) in
        duals.(i) <- (if p.dual_sign.(i) < 0 then F.neg y else y)
      end
    done;
    duals

  (* [solve_on], [Restricted.create_on] and [Restricted.reoptimize_on]
     count their pivots on [meter] and report nothing; the public entry
     points report through [metered]. *)
  let solve_on meter model ~max_iters =
    match prepare model ~max_iters meter with
    | `Infeasible -> Infeasible
    | `Feasible p ->
      let t = p.tab in
      (* Phase 2: original objective; artificial columns are barred from
         entering. *)
      set_objective_row t (model_cost model t);
      (match iterate t ~enter_ok:(fun j -> j < t.art_start) ~max_iters meter with
       | `Unbounded -> Unbounded
       | `Optimal ->
         let solution = Array.make t.nvars F.zero in
         Array.iteri
           (fun i row -> if t.basis.(i) < t.nvars then solution.(t.basis.(i)) <- row.(t.cols))
           t.rows;
         let objective = F.neg t.objrow.(t.cols) in
         Optimal { objective; solution; duals = extract_duals p })

  let solve_max_iters model ~max_iters = metered (fun m -> solve_on m model ~max_iters)
  let solve model = solve_max_iters model ~max_iters:1_000_000

  (* Warm-started restricted master: keep the optimal tableau alive, append
     priced columns, and continue primal simplex from the current basis
     instead of re-solving from scratch. See the .mli for the algebra. *)
  module Restricted = struct
    type master = {
      p : prepared;
      orig_cols : int;  (* columns before any append; appended live above *)
      max_iters : int;
      (* Phase-2 cost per tableau column (capacity >= cols, grows with
         appends): needed to price a fresh column against whatever basis
         is current. *)
      mutable cost : F.t array;
      mutable appended : int;
    }

    type t = master

    let create_on meter ~max_iters model =
      match prepare model ~max_iters meter with
      | `Infeasible -> `Infeasible
      | `Feasible p ->
        let t = p.tab in
        let cost = model_cost model t in
        set_objective_row t cost;
        (match iterate t ~enter_ok:(fun j -> j < t.art_start) ~max_iters meter with
         | `Unbounded -> `Unbounded
         | `Optimal -> `Optimal { p; orig_cols = t.cols; max_iters; cost; appended = 0 })

    let create ?(max_iters = 1_000_000) model = metered (fun m -> create_on m ~max_iters model)

    let objective rm = F.neg rm.p.tab.objrow.(rm.p.tab.cols)
    let duals rm = extract_duals rm.p
    let num_appended rm = rm.appended

    (* Solution over [nvars] model variables followed by the appended
       columns in append order. *)
    let solution rm =
      let t = rm.p.tab in
      let sol = Array.make (t.nvars + rm.appended) F.zero in
      Array.iteri
        (fun i row ->
          let b = t.basis.(i) in
          if b < t.nvars then sol.(b) <- row.(t.cols)
          else if b >= rm.orig_cols then sol.(t.nvars + (b - rm.orig_cols)) <- row.(t.cols))
        t.rows;
      sol

    (* [grown a ~keep ~need] is [a] when it has [need] slots, else an array
       of twice its capacity (at least [need]) holding its first [keep]
       entries. Doubling makes a run of appends copy each row O(log k)
       times instead of once per append. *)
    let grown a ~keep ~need =
      if Array.length a >= need then a
      else begin
        let b = Array.make (max need (2 * Array.length a)) F.zero in
        Array.blit a 0 b 0 keep;
        b
      end

    (* Append a variable with objective coefficient [obj] and constraint
       coefficients [entries] (original constraint index, coefficient).
       The tableau carries B^-1 A, so the new column enters as B^-1 a —
       assembled from the identity columns that dual recovery already
       tracks: B^-1 a = sum_r a_r * T[., dual_col r] (with a sign-adjusted
       for flipped rows). Valid only while no row was dropped as redundant:
       a dropped row's dependency need not extend to the new variable, so
       in that case the caller must rebuild ([`Needs_rebuild]). The column
       lands in slot [cols] of every row and the rhs moves up one slot,
       into spare capacity when there is some. *)
    let add_column rm ~obj ~entries =
      if Hashtbl.length rm.p.dropped > 0 then `Needs_rebuild
      else begin
        let t = rm.p.tab in
        let nrows = Array.length t.rows in
        let col = Array.make nrows F.zero in
        List.iter
          (fun (r, a) ->
            let a = F.of_rat (if rm.p.dual_sign.(r) < 0 then Spp_num.Rat.neg a else a) in
            if not (F.is_zero a) then begin
              let jc = rm.p.dual_col.(r) in
              for i = 0 to nrows - 1 do
                let x = t.rows.(i).(jc) in
                if not (F.is_zero x) then col.(i) <- F.add col.(i) (F.mul a x)
              done
            end)
          entries;
        let oldc = t.cols in
        let append row entry =
          let row = grown row ~keep:(oldc + 1) ~need:(oldc + 2) in
          row.(oldc + 1) <- row.(oldc);
          row.(oldc) <- entry;
          row
        in
        Array.iteri (fun i row -> t.rows.(i) <- append row col.(i)) t.rows;
        (* Reduced cost under the current basis: c_new - c_B . B^-1 a.
           Existing reduced costs are unaffected by a new column. *)
        let c = F.of_rat obj in
        let red = ref c in
        for i = 0 to nrows - 1 do
          let cb = rm.cost.(t.basis.(i)) in
          if not (F.is_zero cb) then red := F.sub !red (F.mul cb col.(i))
        done;
        t.objrow <- append t.objrow !red;
        rm.cost <- grown rm.cost ~keep:oldc ~need:(oldc + 1);
        rm.cost.(oldc) <- c;
        t.cols <- oldc + 1;
        rm.appended <- rm.appended + 1;
        `Added
      end

    (* The basis is still feasible after appends (new variables sit
       nonbasic at 0), so plain primal iterations finish the job. *)
    let reoptimize_on meter rm =
      let t = rm.p.tab in
      iterate t
        ~enter_ok:(fun j -> j < t.art_start || j >= rm.orig_cols)
        ~max_iters:rm.max_iters meter

    let reoptimize rm = metered (fun m -> reoptimize_on m rm)
  end
end

(* The dense tableau {!Make} replaced, kept verbatim and applied to exact
   rationals: every update runs over all [cols + 1] slots, and every append
   copies every row. The oracle [Make] is checked against (test_lp, the
   [diff.simplex] fuzz property, bench T9r); no production path calls it. *)
module Reference = struct
  module Make (F : Field.S) = struct
    (* Dense tableau:
         rows    : m arrays of length [cols+1]; slot [cols] is the rhs.
         basis   : basis.(i) is the variable basic in row i.
         objrow  : reduced costs, slot [cols] holds -z.
       Column layout: [0,n) model vars, [n, art_start) slack/surplus,
       [art_start, cols) artificials — and, for a warm-started restricted
       master, appended columns at [orig_cols, cols). *)

    type tableau = {
      mutable rows : F.t array array;
      mutable basis : int array;
      mutable objrow : F.t array;
      mutable cols : int;
      art_start : int;
      nvars : int;
    }

    let pivot t r c =
      let prow = t.rows.(r) in
      let pv = prow.(c) in
      for j = 0 to t.cols do
        prow.(j) <- F.div prow.(j) pv
      done;
      let eliminate row =
        let factor = row.(c) in
        if not (F.is_zero factor) then
          for j = 0 to t.cols do
            row.(j) <- F.sub row.(j) (F.mul factor prow.(j))
          done
      in
      Array.iteri (fun i row -> if i <> r then eliminate row) t.rows;
      eliminate t.objrow;
      t.basis.(r) <- c

    (* Pricing. Dantzig's rule (most negative reduced cost) is fast but can
       cycle on degenerate bases; Bland's rule (smallest eligible index)
       terminates always. We run Dantzig while progress is made and fall back
       to Bland permanently after a run of degenerate pivots — a standard,
       still-terminating hybrid. Leaving row: min ratio, ties by smallest
       basis index (part of Bland's argument). [enter_ok] restricts the
       entering candidates (phase 2 bars artificials; a restricted master
       additionally admits its appended columns). *)
    let degenerate_limit = 40

    let iterate t ~enter_ok ~max_iters =
      let iters = ref 0 in
      let degenerate_run = ref 0 in
      let rec step () =
        incr iters;
        if !iters > max_iters then failwith "Simplex: iteration limit exceeded";
        let entering = ref (-1) in
        if !degenerate_run < degenerate_limit then begin
          (* Dantzig: most negative reduced cost. *)
          let best = ref F.zero in
          for j = 0 to t.cols - 1 do
            if enter_ok j && F.compare t.objrow.(j) !best < 0 then begin
              best := t.objrow.(j);
              entering := j
            end
          done
        end
        else begin
          let j = ref 0 in
          while !entering < 0 && !j < t.cols do
            if enter_ok !j && F.compare t.objrow.(!j) F.zero < 0 then entering := !j;
            incr j
          done
        end;
        if !entering < 0 then `Optimal
        else begin
          let e = !entering in
          let leave = ref (-1) in
          let best_ratio = ref F.zero in
          Array.iteri
            (fun i row ->
              if F.compare row.(e) F.zero > 0 then begin
                let ratio = F.div row.(t.cols) row.(e) in
                if
                  !leave < 0
                  || F.compare ratio !best_ratio < 0
                  || (F.compare ratio !best_ratio = 0 && t.basis.(i) < t.basis.(!leave))
                then begin
                  leave := i;
                  best_ratio := ratio
                end
              end)
            t.rows;
          if !leave < 0 then `Unbounded
          else begin
            if F.is_zero !best_ratio then incr degenerate_run else degenerate_run := 0;
            pivot t !leave e;
            step ()
          end
        end
      in
      (* Ambient profiling: one aggregate report per solve, on every exit
         path (including the iteration-limit failure), never per pivot. *)
      let report () = Spp_obs.Profile.add_pivots !iters in
      match step () with
      | r ->
        report ();
        r
      | exception e ->
        report ();
        raise e

    (* Reduced-cost row for cost vector [cost] (length cols) under the current
       basis: r_j = c_j - sum_i c_{basis i} T[i][j];   slot cols = -z. *)
    let set_objective_row t cost =
      for j = 0 to t.cols do
        t.objrow.(j) <- (if j < t.cols then cost.(j) else F.zero)
      done;
      Array.iteri
        (fun i row ->
          let cb = cost.(t.basis.(i)) in
          if not (F.is_zero cb) then
            for j = 0 to t.cols do
              t.objrow.(j) <- F.sub t.objrow.(j) (F.mul cb row.(j))
            done)
        t.rows

    (* Everything phase 2 (and a warm-started master) needs to keep going
       after phase 1: the tableau plus the dual-recovery bookkeeping. *)
    type prepared = {
      tab : tableau;
      m : int;  (* original constraint count, including dropped rows *)
      dual_col : int array;
      dual_sign : int array;
      dropped : (int, unit) Hashtbl.t;
    }

    (* Build the tableau from [model] and run phase 1 (when artificials are
       needed), driving artificials out of the basis and dropping redundant
       rows. Returns a feasible prepared tableau or [`Infeasible]. *)
    let prepare model ~max_iters =
      let n = Model.num_vars model in
      let constrs = Array.of_list (Model.constraints model) in
      let m = Array.length constrs in
      (* Normalise every row to rhs >= 0 and count auxiliary columns. *)
      let slack_count = ref 0 and art_count = ref 0 in
      let norm =
        Array.map
          (fun (_, terms, op, rhs) ->
            let flip = Spp_num.Rat.sign rhs < 0 in
            let terms = if flip then List.map (fun (v, c) -> (v, Spp_num.Rat.neg c)) terms else terms in
            let rhs = if flip then Spp_num.Rat.neg rhs else rhs in
            let op = match (op, flip) with
              | Model.Eq, _ -> Model.Eq
              | Model.Le, false | Model.Ge, true -> Model.Le
              | Model.Ge, false | Model.Le, true -> Model.Ge
            in
            (match op with
             | Model.Le -> incr slack_count
             | Model.Ge -> incr slack_count; incr art_count
             | Model.Eq -> incr art_count);
            (terms, op, rhs, flip))
          constrs
      in
      let art_start = n + !slack_count in
      let cols = art_start + !art_count in
      let rows = Array.init m (fun _ -> Array.make (cols + 1) F.zero) in
      let basis = Array.make m 0 in
      let next_slack = ref n and next_art = ref art_start in
      (* For dual recovery: a column whose original entries were +e_i (the
         slack for Le, the artificial for Ge/Eq), so that at optimality the
         normalised dual is -(its reduced cost); [dual_sign] undoes the rhs
         flip. *)
      let dual_col = Array.make m 0 in
      let dual_sign = Array.make m 1 in
      Array.iteri
        (fun i (terms, op, rhs, flipped) ->
          let row = rows.(i) in
          List.iter (fun (v, c) -> row.(v) <- F.add row.(v) (F.of_rat c)) terms;
          row.(cols) <- F.of_rat rhs;
          dual_sign.(i) <- (if flipped then -1 else 1);
          (match op with
           | Model.Le ->
             row.(!next_slack) <- F.one;
             basis.(i) <- !next_slack;
             dual_col.(i) <- !next_slack;
             incr next_slack
           | Model.Ge ->
             row.(!next_slack) <- F.neg F.one;
             incr next_slack;
             row.(!next_art) <- F.one;
             basis.(i) <- !next_art;
             dual_col.(i) <- !next_art;
             incr next_art
           | Model.Eq ->
             row.(!next_art) <- F.one;
             basis.(i) <- !next_art;
             dual_col.(i) <- !next_art;
             incr next_art))
        norm;
      let t = { rows; basis; objrow = Array.make (cols + 1) F.zero; cols; art_start; nvars = n } in
      let dropped = Hashtbl.create 4 in
      let feasible = ref true in
      if !art_count > 0 then begin
        (* Phase 1: minimise the sum of artificial variables. *)
        let cost = Array.make cols F.zero in
        for j = art_start to cols - 1 do
          cost.(j) <- F.one
        done;
        set_objective_row t cost;
        (match iterate t ~enter_ok:(fun _ -> true) ~max_iters with
         | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
         | `Optimal -> ());
        let z1 = F.neg t.objrow.(t.cols) in
        if F.compare z1 F.zero > 0 then feasible := false
        else begin
          (* Drive artificials out of the basis; drop redundant rows. *)
          let keep = ref [] in
          Array.iteri
            (fun i row ->
              if t.basis.(i) >= art_start then begin
                let piv = ref (-1) in
                for j = 0 to art_start - 1 do
                  if !piv < 0 && not (F.is_zero row.(j)) then piv := j
                done;
                if !piv >= 0 then begin
                  pivot t i !piv;
                  keep := i :: !keep
                end
                (* else: all-zero structural row => linearly dependent, drop *)
              end
              else keep := i :: !keep)
            t.rows;
          let keep = List.sort compare !keep in
          Array.iteri (fun i _ -> if not (List.mem i keep) then Hashtbl.replace dropped i ()) t.rows;
          t.rows <- Array.of_list (List.map (fun i -> t.rows.(i)) keep);
          t.basis <- Array.of_list (List.map (fun i -> t.basis.(i)) keep)
        end
      end;
      if !feasible then `Feasible { tab = t; m; dual_col; dual_sign; dropped } else `Infeasible

    (* Phase-2 cost vector of the model, over the tableau's columns. *)
    let model_cost model t =
      let cost = Array.make t.cols F.zero in
      List.iter (fun (v, c) -> cost.(v) <- F.add cost.(v) (F.of_rat c)) (Model.objective model);
      cost

    (* Duals: for constraint i with auxiliary column j whose original entries
       were +e_i, the reduced cost is r_j = -y_i, so y_i = -r_j, sign-adjusted
       for flipped rows. Dropped (redundant) rows get dual 0. *)
    let extract_duals p =
      let t = p.tab in
      let duals = Array.make p.m F.zero in
      for i = 0 to p.m - 1 do
        if not (Hashtbl.mem p.dropped i) then begin
          let y = F.neg t.objrow.(p.dual_col.(i)) in
          duals.(i) <- (if p.dual_sign.(i) < 0 then F.neg y else y)
        end
      done;
      duals

    let solve_max_iters model ~max_iters =
      match prepare model ~max_iters with
      | `Infeasible -> Infeasible
      | `Feasible p ->
        let t = p.tab in
        (* Phase 2: original objective; artificial columns are barred from
           entering. *)
        set_objective_row t (model_cost model t);
        (match iterate t ~enter_ok:(fun j -> j < t.art_start) ~max_iters with
         | `Unbounded -> Unbounded
         | `Optimal ->
           let solution = Array.make t.nvars F.zero in
           Array.iteri
             (fun i row -> if t.basis.(i) < t.nvars then solution.(t.basis.(i)) <- row.(t.cols))
             t.rows;
           let objective = F.neg t.objrow.(t.cols) in
           Optimal { objective; solution; duals = extract_duals p })

    let solve model = solve_max_iters model ~max_iters:1_000_000

    (* Warm-started restricted master: keep the optimal tableau alive, append
       priced columns, and continue primal simplex from the current basis
       instead of re-solving from scratch. See the .mli for the algebra. *)
    module Restricted = struct
      type master = {
        p : prepared;
        orig_cols : int;  (* columns before any append; appended live above *)
        max_iters : int;
        (* Phase-2 cost per tableau column (length cols, grows with appends):
           needed to price a fresh column against whatever basis is current. *)
        mutable cost : F.t array;
        mutable appended : int;
      }

      type t = master

      let create ?(max_iters = 1_000_000) model =
        match prepare model ~max_iters with
        | `Infeasible -> `Infeasible
        | `Feasible p ->
          let t = p.tab in
          let cost = model_cost model t in
          set_objective_row t cost;
          (match iterate t ~enter_ok:(fun j -> j < t.art_start) ~max_iters with
           | `Unbounded -> `Unbounded
           | `Optimal -> `Optimal { p; orig_cols = t.cols; max_iters; cost; appended = 0 })

      let objective rm = F.neg rm.p.tab.objrow.(rm.p.tab.cols)
      let duals rm = extract_duals rm.p
      let num_appended rm = rm.appended

      (* Solution over [nvars] model variables followed by the appended
         columns in append order. *)
      let solution rm =
        let t = rm.p.tab in
        let sol = Array.make (t.nvars + rm.appended) F.zero in
        Array.iteri
          (fun i row ->
            let b = t.basis.(i) in
            if b < t.nvars then sol.(b) <- row.(t.cols)
            else if b >= rm.orig_cols then sol.(t.nvars + (b - rm.orig_cols)) <- row.(t.cols))
          t.rows;
        sol

      (* Append a variable with objective coefficient [obj] and constraint
         coefficients [entries] (original constraint index, coefficient).
         The tableau carries B^-1 A, so the new column enters as B^-1 a —
         assembled from the identity columns that dual recovery already
         tracks: B^-1 a = sum_r a_r * T[., dual_col r] (with a sign-adjusted
         for flipped rows). Valid only while no row was dropped as redundant:
         a dropped row's dependency need not extend to the new variable, so
         in that case the caller must rebuild ([`Needs_rebuild]). *)
      let add_column rm ~obj ~entries =
        if Hashtbl.length rm.p.dropped > 0 then `Needs_rebuild
        else begin
          let t = rm.p.tab in
          let nrows = Array.length t.rows in
          let col = Array.make nrows F.zero in
          List.iter
            (fun (r, a) ->
              let a = F.of_rat (if rm.p.dual_sign.(r) < 0 then Spp_num.Rat.neg a else a) in
              if not (F.is_zero a) then begin
                let jc = rm.p.dual_col.(r) in
                for i = 0 to nrows - 1 do
                  col.(i) <- F.add col.(i) (F.mul a t.rows.(i).(jc))
                done
              end)
            entries;
          let oldc = t.cols in
          t.rows <-
            Array.mapi
              (fun i row ->
                let nr = Array.make (oldc + 2) F.zero in
                Array.blit row 0 nr 0 oldc;
                nr.(oldc) <- col.(i);
                nr.(oldc + 1) <- row.(oldc);
                nr)
              t.rows;
          (* Reduced cost under the current basis: c_new - c_B . B^-1 a.
             Existing reduced costs are unaffected by a new column. *)
          let c = F.of_rat obj in
          let red = ref c in
          for i = 0 to nrows - 1 do
            let cb = rm.cost.(t.basis.(i)) in
            if not (F.is_zero cb) then red := F.sub !red (F.mul cb col.(i))
          done;
          let nobj = Array.make (oldc + 2) F.zero in
          Array.blit t.objrow 0 nobj 0 oldc;
          nobj.(oldc) <- !red;
          nobj.(oldc + 1) <- t.objrow.(oldc);
          t.objrow <- nobj;
          let ncost = Array.make (oldc + 1) F.zero in
          Array.blit rm.cost 0 ncost 0 oldc;
          ncost.(oldc) <- c;
          rm.cost <- ncost;
          t.cols <- oldc + 1;
          rm.appended <- rm.appended + 1;
          `Added
        end

      (* The basis is still feasible after appends (new variables sit
         nonbasic at 0), so plain primal iterations finish the job. *)
      let reoptimize rm =
        let t = rm.p.tab in
        iterate t
          ~enter_ok:(fun j -> j < t.art_start || j >= rm.orig_cols)
          ~max_iters:rm.max_iters
    end
  end

  module M = Make (Field.Rat)

  let solve = M.solve
  module Restricted = M.Restricted
end

module type RESTRICTED = sig
  type t

  val create :
    ?max_iters:int -> Model.t -> [ `Optimal of t | `Infeasible | `Unbounded ]

  val objective : t -> Spp_num.Rat.t
  val solution : t -> Spp_num.Rat.t array
  val duals : t -> Spp_num.Rat.t array
  val num_appended : t -> int

  val add_column :
    t -> obj:Spp_num.Rat.t -> entries:(int * Spp_num.Rat.t) list -> [ `Added | `Needs_rebuild ]

  val reoptimize : t -> [ `Optimal | `Unbounded ]
end

(* The exact solver pivots on {!Field.Word} first. Every word entry is the
   boxed entry, so the pivots are the boxed ones until a value leaves the
   word range; then the boxed field takes over from the input, and only
   its pivots are reported. *)
module Exact = struct
  module W = Make (Field.Word)
  module R = Make (Field.Rat)

  let fallback_count = Atomic.make 0
  let fallbacks () = Atomic.get fallback_count
  let rat = Field.Word.to_rat

  (* Run [f] on words: report its pivots when it returns or raises, or,
     when a value overflows, drop them and run [fallback] instead. *)
  let on_words f ~fallback =
    let m = { pivots = 0 } in
    match f m with
    | r ->
      Spp_obs.Profile.add_pivots m.pivots;
      r
    | exception Field.Word.Overflow ->
      Atomic.incr fallback_count;
      fallback ()
    | exception e ->
      Spp_obs.Profile.add_pivots m.pivots;
      raise e

  let solve model =
    on_words
      (fun m ->
        match W.solve_on m model ~max_iters:1_000_000 with
        | Optimal { objective; solution; duals } ->
          Optimal
            { objective = rat objective; solution = Array.map rat solution;
              duals = Array.map rat duals }
        | Infeasible -> Infeasible
        | Unbounded -> Unbounded)
      ~fallback:(fun () -> R.solve model)

  module Restricted = struct
    (* A step the word master took after [create]; the log is newest
       first. *)
    type step = Append of Spp_num.Rat.t * (int * Spp_num.Rat.t) list | Reoptimize

    type state = Word of W.Restricted.t | Boxed of R.Restricted.t

    type t = {
      model : Model.t;
      max_iters : int;
      mutable state : state;
      mutable steps : step list;  (* kept while on words *)
    }

    let create ?(max_iters = 1_000_000) model =
      let model = Model.copy model in
      let master state = `Optimal { model; max_iters; state; steps = [] } in
      on_words
        (fun m ->
          match W.Restricted.create_on m ~max_iters model with
          | `Optimal w -> master (Word w)
          | (`Infeasible | `Unbounded) as r -> r)
        ~fallback:(fun () ->
          match R.Restricted.create ~max_iters model with
          | `Optimal b -> master (Boxed b)
          | (`Infeasible | `Unbounded) as r -> r)

    (* Leave words for good: a boxed master retraces the logged steps from
       the model, on a meter nobody reads (the word master reported those
       pivots), and takes over. *)
    let box rm =
      let quiet = { pivots = 0 } in
      match R.Restricted.create_on quiet ~max_iters:rm.max_iters rm.model with
      | `Infeasible | `Unbounded -> assert false (* words reached an optimum on these pivots *)
      | `Optimal b ->
        List.iter
          (function
            | Append (obj, entries) -> ignore (R.Restricted.add_column b ~obj ~entries)
            | Reoptimize -> ignore (R.Restricted.reoptimize_on quiet b))
          (List.rev rm.steps);
        rm.state <- Boxed b;
        rm.steps <- [];
        b

    let objective rm =
      match rm.state with
      | Word w -> rat (W.Restricted.objective w)
      | Boxed b -> R.Restricted.objective b

    let solution rm =
      match rm.state with
      | Word w -> Array.map rat (W.Restricted.solution w)
      | Boxed b -> R.Restricted.solution b

    let duals rm =
      match rm.state with
      | Word w -> Array.map rat (W.Restricted.duals w)
      | Boxed b -> R.Restricted.duals b

    let num_appended rm =
      match rm.state with
      | Word w -> W.Restricted.num_appended w
      | Boxed b -> R.Restricted.num_appended b

    let add_column rm ~obj ~entries =
      match rm.state with
      | Boxed b -> R.Restricted.add_column b ~obj ~entries
      | Word w ->
        on_words
          (fun _ ->
            let r = W.Restricted.add_column w ~obj ~entries in
            if r = `Added then rm.steps <- Append (obj, entries) :: rm.steps;
            r)
          ~fallback:(fun () -> R.Restricted.add_column (box rm) ~obj ~entries)

    let reoptimize rm =
      match rm.state with
      | Boxed b -> R.Restricted.reoptimize b
      | Word w ->
        on_words
          (fun m ->
            let r = W.Restricted.reoptimize_on m w in
            rm.steps <- Reoptimize :: rm.steps;
            r)
          ~fallback:(fun () -> R.Restricted.reoptimize (box rm))
  end
end

module Approx = struct
  module M = Make (Field.Float)

  let solve model = M.solve_max_iters model ~max_iters:100_000
end
