-- Self-checking testbench generated by the repro FOSSY flow.
-- Expected values were computed by executing the elaborated FSMD with the
-- reference interpreter; a VHDL simulator must reproduce them exactly.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity idwt53_tb is
end entity idwt53_tb;

architecture bench of idwt53_tb is
  signal clk   : std_logic := '0';
  signal reset : std_logic := '1';
  signal start : std_logic := '0';
  signal done  : std_logic;
  signal tile_w : signed(9 downto 0);
  signal tile_h : signed(9 downto 0);
  signal num_levels : signed(9 downto 0);
  signal busy_flag : signed(0 downto 0);
begin
  clk <= not clk after 5 ns;

  dut : entity work.idwt53
    port map (clk => clk, reset => reset, start => start, done => done, tile_w => tile_w, tile_h => tile_h, num_levels => num_levels, busy_flag => busy_flag);

  stimulus : process
  begin
    tile_w <= to_signed(8, 10);
    tile_h <= to_signed(8, 10);
    num_levels <= to_signed(1, 10);
    wait for 20 ns;
    reset <= '0';
    start <= '1';
    wait until done = '1' for 26890 ns;
    assert done = '1'
      report "idwt53: DONE not reached within 2689 cycles" severity failure;
    report "testbench finished" severity note;
    wait;
  end process stimulus;

  -- expected tile_ram[0..63] after DONE:
  --       0: -20, 3, -10, -14, 0, -6, 1, -1, -7, -8, -11, -6, 0, 0, 10, 15
  --      16: 12, 3, -18, 2, -11, -16, -1, -8, -11, 4, -9, -9, -12, -5, 1, -4
  --      32: 7, 6, 15, 5, -18, 4, -10, -20, 9, 2, -7, 7, -10, -2, -7, -21
  --      48: -2, -5, 8, 6, 13, 15, -12, -25, 2, 3, 17, 15, 3, -4, -11, -32
end architecture bench;
