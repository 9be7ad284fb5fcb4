type entry =
  { mutable tag : int;
    mutable ctr : int;  (* 0..7, taken if >= 4 *)
    mutable useful : int  (* 0..3 *)
  }

type state =
  { base : int array;  (* bimodal, 2-bit *)
    base_mask : int;
    tables : entry array array;
    hist_lens : int array;
    table_mask : int;
    idx_bits : int;  (* log2 (table_mask + 1), hoisted out of [index] *)
    tag_mask : int;
    mutable history : int;
    hmask : int;
    (* Incrementally-maintained folded views of [history], one triple per
       table: the two index folds (idx_bits and idx_bits-1 wide) and the
       tag fold (9 bits). Invariant: f_idx.(t) = fold history len idx_bits
       (etc.) for len = hist_lens.(t). *)
    f_idx : int array;
    f_idx2 : int array;
    f_tag : int array;
    mutable use_alt_on_na : int;  (* 0..15 *)
    mutable update_count : int;
    mutable lfsr : int
  }

let geometric ~first ~last ~n =
  if n = 1 then [| last |]
  else begin
    let r = Float.of_int last /. Float.of_int first in
    let ratio = r ** (1.0 /. Float.of_int (n - 1)) in
    Array.init n (fun i ->
        let l =
          Float.to_int
            (Float.round (Float.of_int first *. (ratio ** Float.of_int i)))
        in
        max 1 (min last l))
  end

(* XOR-fold the low [len] bits of [h] down to [bits] bits. A loop, not a
   local recursive function: that would be a closure over [mask] and
   [bits], allocated by every call of every [refold]. *)
let fold h len bits =
  let mask = (1 lsl bits) - 1 in
  let acc = ref 0 in
  let h = ref (h land ((1 lsl len) - 1)) in
  let remaining = ref len in
  while !remaining > 0 do
    acc := !acc lxor (!h land mask);
    h := !h lsr bits;
    remaining := !remaining - bits
  done;
  !acc

(* Rebuild every folded register from [st.history] (after an arbitrary
   history rewrite, i.e. a mispredict recovery). *)
let refold st =
  for t = 0 to Array.length st.hist_lens - 1 do
    let len = st.hist_lens.(t) in
    st.f_idx.(t) <- fold st.history len st.idx_bits;
    st.f_idx2.(t) <- fold st.history len (st.idx_bits - 1);
    st.f_tag.(t) <- fold st.history len 9
  done

(* O(1) update of an XOR-fold when the folded history shifts left by one:
   rotate within [bits], insert the new bit at position 0 and cancel the
   outgoing bit (previously at position len-1) at position len mod bits. *)
let shift_fold f ~bits ~len ~b ~old_top =
  let mask = (1 lsl bits) - 1 in
  let f = ((f lsl 1) lor (f lsr (bits - 1))) land mask in
  f lxor b lxor (old_top lsl (len mod bits))

(* Shift a new outcome bit into the history, keeping the folded
   registers in sync incrementally. *)
let shift_history st taken =
  let h = st.history in
  let b = Bool.to_int taken in
  let bits = st.idx_bits in
  for t = 0 to Array.length st.hist_lens - 1 do
    let len = st.hist_lens.(t) in
    let old_top = (h lsr (len - 1)) land 1 in
    st.f_idx.(t) <- shift_fold st.f_idx.(t) ~bits ~len ~b ~old_top;
    st.f_idx2.(t) <- shift_fold st.f_idx2.(t) ~bits:(bits - 1) ~len ~b ~old_top;
    st.f_tag.(t) <- shift_fold st.f_tag.(t) ~bits:9 ~len ~b ~old_top
  done;
  st.history <- ((h lsl 1) lor b) land st.hmask

let base_index st pc = Predictor.hash_pc pc land st.base_mask

(* Longest-match lookup over the indices/tags cached in [meta] (layout in
   [create]): the highest table <= [t] whose entry tag-matches, or -1.
   Top level, with [st]/[meta]/[n] passed in, so a lookup allocates no
   closure. *)
let longest_match st meta n t =
  let t = ref t in
  while !t >= 0 && st.tables.(!t).(meta.(5 + !t)).tag <> meta.(5 + n + !t) do
    decr t
  done;
  !t

let next_lfsr x =
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17) land max_int

let create ?(num_tables = 6) ?(table_bits = 11) ?(tag_bits = 9)
    ?(max_history = 62) () =
  let st =
    { base = Array.make (1 lsl 13) 1;
      base_mask = (1 lsl 13) - 1;
      tables =
        Array.init num_tables (fun _ ->
            Array.init (1 lsl table_bits) (fun _ ->
                { tag = -1; ctr = 4; useful = 0 }));
      hist_lens = geometric ~first:4 ~last:max_history ~n:num_tables;
      table_mask = (1 lsl table_bits) - 1;
      idx_bits = table_bits;
      tag_mask = (1 lsl tag_bits) - 1;
      history = 0;
      hmask = (1 lsl max_history) - 1;
      f_idx = Array.make num_tables 0;
      f_idx2 = Array.make num_tables 0;
      f_tag = Array.make num_tables 0;
      use_alt_on_na = 8;
      update_count = 0;
      lfsr = 0x12345
    }
  in
  let shift h taken = ((h lsl 1) lor Bool.to_int taken) land st.hmask in
  let storage_bits =
    (2 * (st.base_mask + 1))
    + num_tables * (st.table_mask + 1) * (tag_bits + 3 + 2)
  in
  (* meta layout: [| h; pred; provider+1; ppred; alt;
     idx_0..idx_{n-1}; tag_0..tag_{n-1} |]. The per-table indices and
     tags are pure functions of (pc, predict-time history); computing
     them once here and carrying them in meta lets [update] skip every
     fold entirely (it used to rewind [st.history] and re-derive them). *)
  let n = num_tables in
  let predict ~pc ~outcome:_ =
    let h = st.history in
    let meta = Array.make (5 + 2 * n) 0 in
    let hp = Predictor.hash_pc pc in
    let hp31 = Predictor.hash_pc (pc * 31) in
    for t = 0 to n - 1 do
      meta.(5 + t) <-
        (hp lxor st.f_idx.(t) lxor (st.f_idx2.(t) lsl 1)) land st.table_mask;
      meta.(5 + n + t) <-
        (hp31 lxor st.f_tag.(t) lxor (t * 0x5bd1)) land st.tag_mask
    done;
    let base_pred =
      Predictor.counter_taken st.base.(base_index st pc) ~max:3
    in
    let provider = longest_match st meta n (n - 1) in
    let ppred =
      if provider < 0 then base_pred
      else st.tables.(provider).(meta.(5 + provider)).ctr >= 4
    in
    let alt =
      if provider < 0 then base_pred
      else begin
        let a = longest_match st meta n (provider - 1) in
        if a < 0 then base_pred else st.tables.(a).(meta.(5 + a)).ctr >= 4
      end
    in
    let pred =
      if provider >= 0 then begin
        let e = st.tables.(provider).(meta.(5 + provider)) in
        (* Weak, never-useful entries are "newly allocated": optionally
           trust the alternate prediction. *)
        if e.useful = 0 && (e.ctr = 3 || e.ctr = 4) && st.use_alt_on_na >= 8
        then alt
        else ppred
      end
      else ppred
    in
    shift_history st pred;
    meta.(0) <- h;
    meta.(1) <- Bool.to_int pred;
    meta.(2) <- provider + 1;
    meta.(3) <- Bool.to_int ppred;
    meta.(4) <- Bool.to_int alt;
    (pred, meta)
  in
  let update meta ~pc ~taken =
    (* Indices/tags for the predict-time history snapshot are cached in
       meta (table t's index at 5 + t, its tag at 5 + n + t); no history
       rewind needed. Read inline: local [idx]/[tg] helpers would be
       closures over [meta], allocated per update. *)
    let pred = meta.(1) = 1 in
    let provider = meta.(2) - 1 in
    let ppred = meta.(3) = 1 in
    let alt = meta.(4) = 1 in
    st.update_count <- st.update_count + 1;
    if provider >= 0 then begin
      let e = st.tables.(provider).(meta.(5 + provider)) in
      if e.tag = meta.(5 + n + provider) then begin
        e.ctr <- Predictor.counter_update e.ctr ~taken ~max:7;
        if ppred <> alt then
          e.useful <-
            Predictor.counter_update e.useful ~taken:(ppred = taken) ~max:3;
        (* Track whether alt would have been the better choice for newly
           allocated entries. *)
        if e.useful = 0 && ppred <> alt then
          st.use_alt_on_na <-
            Predictor.counter_update st.use_alt_on_na ~taken:(alt = taken)
              ~max:15
      end
    end
    else begin
      let i = base_index st pc in
      st.base.(i) <- Predictor.counter_update st.base.(i) ~taken ~max:3
    end;
    (* Allocate on misprediction, in a table longer than the provider. *)
    if pred <> taken && provider < n - 1 then begin
      let start = provider + 1 in
      (* Candidate entries have useful = 0; pick pseudo-randomly with
         preference for shorter histories: the shortest candidate, or
         one time in four the second shortest. *)
      let c1 = ref (-1) and c2 = ref (-1) in
      for t = start to n - 1 do
        if st.tables.(t).(meta.(5 + t)).useful = 0 then
          if !c1 < 0 then c1 := t else if !c2 < 0 then c2 := t
      done;
      if !c1 < 0 then
        (* No room: age the would-be victims. *)
        for t = start to n - 1 do
          let e = st.tables.(t).(meta.(5 + t)) in
          if e.useful > 0 then e.useful <- e.useful - 1
        done
      else begin
        st.lfsr <- next_lfsr st.lfsr;
        let chosen = if !c2 >= 0 && st.lfsr land 3 = 0 then !c2 else !c1 in
        let e = st.tables.(chosen).(meta.(5 + chosen)) in
        e.tag <- meta.(5 + n + chosen);
        e.ctr <- (if taken then 4 else 3);
        e.useful <- 0
      end
    end;
    (* Periodic useful-bit aging. *)
    if st.update_count land 0x3ffff = 0 then
      Array.iter
        (fun tbl -> Array.iter (fun e -> e.useful <- e.useful lsr 1) tbl)
        st.tables
  in
  let recover meta ~taken =
    st.history <- shift meta.(0) taken;
    refold st
  in
  { Predictor.name =
      Printf.sprintf "tage-%dx%db" num_tables table_bits;
    storage_bits;
    predict;
    update;
    recover
  }
