type t =
  { mutable slots : int array;
    mutable top : int;  (* index of next free slot *)
    mutable depth : int
  }

let create ?(entries = 64) () =
  { slots = Array.make entries 0; top = 0; depth = 0 }

let size t = Array.length t.slots

let push t pc =
  t.slots.(t.top) <- pc;
  t.top <- (t.top + 1) mod size t;
  t.depth <- min (size t) (t.depth + 1)

let pop t =
  if t.depth = 0 then -1
  else begin
    t.top <- (t.top + size t - 1) mod size t;
    t.depth <- t.depth - 1;
    t.slots.(t.top)
  end

let depth t = t.depth

let snapshot t = { slots = Array.copy t.slots; top = t.top; depth = t.depth }

let restore t ~from =
  Array.blit from.slots 0 t.slots 0 (Array.length t.slots);
  t.top <- from.top;
  t.depth <- from.depth
